package core

import (
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// recoveryRig: a site truck whose ODD the weather can exit.
func recoveryRig(t *testing.T, policy AutoRecoveryPolicy) (*sim.Engine, *Constituent, *world.World) {
	t.Helper()
	w := world.New()
	w.MustAddZone(world.Zone{ID: "area", Kind: world.ZoneWorkArea,
		Area: geom.NewRect(geom.V(-100, -100), geom.V(1000, 100))})
	w.MustAddZone(world.Zone{ID: "park", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(-80, -80), geom.V(-40, -40))})
	c := MustConstituent(Config{
		ID:    "truck",
		Spec:  vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0)},
		World: w,
		Goal:  "haul",
	})
	c.AutoRecovery = policy
	c.RecoveryDwell = 5 * time.Second
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	return e, c, w
}

func TestAutoRecoveryOffStaysInMRC(t *testing.T) {
	e, c, w := recoveryRig(t, AutoRecoveryOff)
	w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 8}
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v, want MRC under heavy rain", c.Mode())
	}
	w.Weather = world.Weather{Condition: world.Clear, TemperatureC: 15}
	e.RunFor(2 * time.Minute)
	if !c.InMRC() {
		t.Error("default policy must stay in MRC until intervention (Defs. 1-2)")
	}
	if c.AutoRecovered() != 0 {
		t.Error("no autonomous recovery under the default policy")
	}
}

func TestAutoRecoveryTransientResumes(t *testing.T) {
	e, c, w := recoveryRig(t, AutoRecoveryTransient)
	w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 8}
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	w.Weather = world.Weather{Condition: world.Clear, TemperatureC: 15}
	e.RunFor(time.Minute)
	if !c.Operational() {
		t.Fatalf("mode = %v, want autonomous resume", c.Mode())
	}
	if c.AutoRecovered() != 1 || c.Interventions() != 0 {
		t.Errorf("autoRecovered = %d interventions = %d", c.AutoRecovered(), c.Interventions())
	}
	if c.Goal() != "haul" {
		t.Errorf("goal = %q, want the user goal restored", c.Goal())
	}
	ev, ok := e.Env().Log.Last(sim.EventRecovered)
	if !ok || ev.Detail == "" {
		t.Error("recovery event missing")
	}
}

func TestAutoRecoveryNeedsDwell(t *testing.T) {
	e, c, w := recoveryRig(t, AutoRecoveryTransient)
	c.RecoveryDwell = 30 * time.Second
	w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 8}
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	w.Weather = world.Weather{Condition: world.Clear, TemperatureC: 15}
	e.RunFor(15 * time.Second)
	if !c.InMRC() {
		t.Error("recovery must wait for the dwell time")
	}
	e.RunFor(30 * time.Second)
	if !c.Operational() {
		t.Errorf("mode = %v after the dwell, want operational", c.Mode())
	}
}

func TestAutoRecoveryBlockedByPermanentFault(t *testing.T) {
	e, c, _ := recoveryRig(t, AutoRecoveryTransient)
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	e.RunFor(2 * time.Minute)
	if !c.InMRC() {
		t.Error("a permanent fault must never auto-recover")
	}
	if c.AutoRecovered() != 0 {
		t.Error("no autonomous recovery with an active fault")
	}
}

func TestAutoRecoveryBlockedNearODDExit(t *testing.T) {
	e, c, w := recoveryRig(t, AutoRecoveryTransient)
	w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 8}
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	// Plain rain is at the site ODD boundary: inside but near-exit —
	// not comfortable enough for an autonomous resume.
	w.Weather = world.Weather{Condition: world.Rain, TemperatureC: 15}
	e.RunFor(2 * time.Minute)
	if !c.InMRC() {
		t.Errorf("mode = %v; near-exit conditions must not auto-recover", c.Mode())
	}
}

func TestAutoRecoveryCyclesUnderFlapping(t *testing.T) {
	e, c, w := recoveryRig(t, AutoRecoveryTransient)
	c.RecoveryDwell = 2 * time.Second
	cycles := 3
	for i := 0; i < cycles; i++ {
		w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 8}
		e.RunFor(30 * time.Second)
		w.Weather = world.Weather{Condition: world.Clear, TemperatureC: 15}
		e.RunFor(30 * time.Second)
	}
	if got := c.AutoRecovered(); got != cycles {
		t.Errorf("auto recoveries = %d, want %d (one per weather cycle)", got, cycles)
	}
	if c.Interventions() != 0 {
		t.Error("flapping must not consume interventions")
	}
}

// A refuge with capacity 1: the first vehicle takes the pocket, the
// second must fall back to the next MRC level; recovery frees the
// slot again.
func TestMRCTargetRespectsZoneCapacity(t *testing.T) {
	w := world.New()
	w.MustAddZone(world.Zone{ID: "pocket", Kind: world.ZonePocket, Capacity: 1,
		Area: geom.NewRect(geom.V(40, 10), geom.V(60, 20))})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	mk := func(id string, x float64) *Constituent {
		c := MustConstituent(Config{
			ID: id, Spec: vehicle.DefaultSpec(vehicle.KindTruck),
			Start: geom.Pose{Pos: geom.V(x, 0)}, World: w,
		})
		e.MustRegister(c)
		return c
	}
	c1 := mk("v1", 30)
	c2 := mk("v2", 0)

	// Both lose perception to the point of needing an MRM (keeping
	// steering so the pocket stays reachable for whoever gets it).
	blind := func(c *Constituent) {
		c.ApplyFault(fault.Fault{ID: "b-" + c.ID(), Target: c.ID(),
			Kind: fault.KindSensor, Severity: 1, Permanent: true})
	}
	blind(c1)
	e.RunFor(time.Minute)
	if !c1.InMRC() {
		t.Fatalf("v1 mode = %v", c1.Mode())
	}
	// v1 was blind: in_place. Register the pocket via a clean case:
	// use a sighted vehicle whose ODD exits instead.
	_ = c2
	// Direct check of the selection gate with capacities:
	caps := vehicle.FullCapabilities(vehicle.DefaultSpec(vehicle.KindTruck))
	h := DefaultSiteHierarchy()
	m, zone, ok := h.Select(caps, geom.V(30, 0), w)
	if !ok || m.ID != "pocket" || zone.ID != "pocket" {
		t.Fatalf("selection = %v/%v ok=%v", m.ID, zone.ID, ok)
	}
	w.RegisterStop("pocket")
	m, _, ok = h.Select(caps, geom.V(30, 0), w)
	if !ok || m.ID == "pocket" {
		t.Errorf("full pocket still selected: %v", m.ID)
	}
	w.ReleaseStop("pocket")
	m, _, _ = h.Select(caps, geom.V(30, 0), w)
	if m.ID != "pocket" {
		t.Errorf("released pocket not selected: %v", m.ID)
	}
}

// End-to-end occupancy lifecycle: reaching a positional MRC registers
// the slot; recovery releases it.
func TestOccupancyLifecycle(t *testing.T) {
	e, c, w := recoveryRig(t, AutoRecoveryOff)
	w.MustAddZone(world.Zone{ID: "spot", Kind: world.ZoneParking, Capacity: 1,
		Area: geom.NewRect(geom.V(20, 20), geom.V(40, 40))})
	w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 8}
	e.RunFor(2 * time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	zone := c.TargetZone()
	if zone.ID == "" {
		t.Fatalf("expected a positional MRC, got %v", c.CurrentMRC().ID)
	}
	if w.HasCapacity(zone.ID) {
		t.Errorf("%s (capacity %d) still has room with the stop registered", zone.ID, zone.Capacity)
	}
	c.Recover(e.Env())
	if !w.HasCapacity(zone.ID) {
		t.Errorf("%s still full after recovery", zone.ID)
	}
}
