package core

import (
	"strings"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// siteRig builds a site world with a graph route to the parking area.
func siteRig(t *testing.T) (*sim.Engine, *Constituent, *world.World) {
	t.Helper()
	w := world.New()
	g := w.Graph()
	g.AddNode("work", geom.V(0, 0))
	g.AddNode("gate", geom.V(80, 0))
	g.AddNode("park", geom.V(80, 60))
	g.MustConnect("work", "gate")
	g.MustConnect("gate", "park")
	w.MustAddZone(world.Zone{ID: "parking", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(70, 55), geom.V(95, 80))})
	w.MustAddZone(world.Zone{ID: "pocket", Kind: world.ZonePocket,
		Area: geom.NewRect(geom.V(30, -20), geom.V(50, -8))})
	c := MustConstituent(Config{
		ID: "t1", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0)}, World: w, Goal: "work",
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	return e, c, w
}

func TestTriggerMRMToSpecific(t *testing.T) {
	e, c, w := siteRig(t)
	c.TriggerMRMTo(e.Env(), "pocket", "directed to the pocket")
	if !c.MRMActive() || c.CurrentMRC().ID != "pocket" {
		t.Fatalf("mrc = %v active=%v", c.CurrentMRC().ID, c.MRMActive())
	}
	e.RunFor(2 * time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	if pocket, _ := w.Zone("pocket"); !pocket.Contains(c.Body().Position()) {
		t.Errorf("stopped at %v, not in the pocket", c.Body().Position())
	}
	// Re-triggering while in MRC is a no-op.
	c.TriggerMRMTo(e.Env(), "parking", "late order")
	if c.CurrentMRC().ID != "pocket" {
		t.Error("MRC must not change after being reached")
	}
}

func TestTriggerMRMToUnknownFallsBack(t *testing.T) {
	e, c, _ := siteRig(t)
	c.TriggerMRMTo(e.Env(), "spaceport", "bad order")
	if !c.MRMActive() {
		t.Fatal("MRM should still start")
	}
	if !strings.Contains(c.MRMReason(), "unknown MRC") {
		t.Errorf("reason = %q", c.MRMReason())
	}
	// Hierarchy selection picked the best feasible instead.
	if c.CurrentMRC().ID != "parking" {
		t.Errorf("fallback MRC = %v, want parking", c.CurrentMRC().ID)
	}
}

func TestTriggerMRMToInfeasibleFallsBack(t *testing.T) {
	e, c, _ := siteRig(t)
	// Steering dead: the pocket (positional) is infeasible.
	c.ApplyFault(fault.Fault{ID: "steer", Target: "t1", Kind: fault.KindSteering,
		Severity: 1, Permanent: true})
	c.TriggerMRMTo(e.Env(), "pocket", "clear the area")
	if !c.MRMActive() {
		t.Fatal("MRM should start")
	}
	if !strings.Contains(c.MRMReason(), "cannot comply") {
		t.Errorf("reason = %q", c.MRMReason())
	}
	if c.CurrentMRC().TargetZone != 0 {
		t.Errorf("fallback must be an in-place stop, got %v", c.CurrentMRC().ID)
	}
}

// The MRM route uses the world graph when one exists: work -> gate ->
// park rather than the straight diagonal.
func TestMRMRoutesViaGraph(t *testing.T) {
	e, c, _ := siteRig(t)
	c.TriggerMRMTo(e.Env(), "parking", "shift end")
	p := c.Body().Path()
	if p == nil {
		t.Fatal("no MRM path")
	}
	// The trajectory planner may offset interior points laterally by up
	// to its LateralMax (2.5 m), so "via the gate" means within that
	// band of the gate node — far off the straight work->park diagonal.
	viaGate := false
	for _, q := range p.Points() {
		if q.Dist(geom.V(80, 0)) <= 4 {
			viaGate = true
		}
	}
	if !viaGate {
		t.Errorf("MRM path skips the graph: %v", p.Points())
	}
	e.RunFor(3 * time.Minute)
	if !c.InMRC() {
		t.Errorf("mode = %v", c.Mode())
	}
}

func TestAccessorsAndCruise(t *testing.T) {
	e, c, _ := siteRig(t)
	if c.Suite() == nil {
		t.Error("Suite accessor nil")
	}
	if c.PlatoonFollower() {
		t.Error("follower flag should start false")
	}
	c.SetPlatoonFollower(true)
	if !c.PlatoonFollower() {
		t.Error("follower flag not set")
	}
	c.SetPlatoonFollower(false)

	if err := c.Dispatch(geom.MustPath(geom.V(0, 0), geom.V(800, 0)), 8); err != nil {
		t.Fatal(err)
	}
	c.SetCruiseSpeed(3)
	e.RunFor(20 * time.Second)
	if c.Body().Speed() > 3+1e-6 {
		t.Errorf("cruise change not applied: %v", c.Body().Speed())
	}
	c.HoldForObstacle(true)
	if !c.Holding() {
		t.Error("hold flag not set")
	}
	e.RunFor(10 * time.Second)
	if !c.Body().Stopped() {
		t.Errorf("holding should stop the body, speed %v", c.Body().Speed())
	}
	c.HoldForObstacle(false)
	e.RunFor(10 * time.Second)
	if c.Body().Stopped() {
		t.Error("release should resume motion")
	}
}
