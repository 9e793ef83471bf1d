package core

import (
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/traj"
	"coopmrm/internal/vehicle"
)

// roadRig builds an engine + one constituent on the road world with
// the road hierarchy (rest_stop > shoulder > in_lane > emergency).
func roadRig(t *testing.T) (*sim.Engine, *Constituent) {
	t.Helper()
	w := roadWorld()
	c := MustConstituent(Config{
		ID: "r1", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(100, 2)}, World: w,
		Hierarchy: DefaultRoadHierarchy(), Seed: 7,
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	return e, c
}

// Regression: when the body refuses the planned path (steering died
// between candidate selection and execution), the executor used to
// swap in a synthetic in-place MRC silently. It must instead descend
// the hierarchy through the normal switch path, with an
// EventMRMSwitched per hop.
func TestSetPathFailureRoutesThroughSwitch(t *testing.T) {
	e, c := roadRig(t)
	env := e.Env()

	// A concerted episode selected a shoulder candidate while steering
	// still worked...
	m, ok := c.hier.ByID("shoulder")
	if !ok {
		t.Fatal("no shoulder MRC in the road hierarchy")
	}
	zone, feasible := m.Feasible(c.Capabilities(), c.Body().Position(), c.world)
	if !feasible {
		t.Fatal("shoulder must be feasible before the fault")
	}
	cand := traj.Candidate{
		Path:   geom.MustPath(geom.V(100, 2), geom.V(120, 5.5)),
		Cruise: 3, Decel: 2,
	}
	// ...then steering died before execution began.
	c.ApplyFault(fault.Fault{ID: "steer", Target: "r1", Kind: fault.KindSteering,
		Severity: 1, Permanent: true})
	c.TriggerMRMPlanned(env, "concerted: assist t0", m, zone, cand)

	if !c.MRMActive() {
		t.Fatalf("mode = %v, want mrm", c.Mode())
	}
	if got := c.CurrentMRC().ID; got != "in_lane" {
		t.Fatalf("fallback MRC = %v, want in_lane", got)
	}
	if n := env.Log.Count(sim.EventMRMSwitched); n != 1 {
		t.Fatalf("switch events = %d, want 1 (silent fallback regression)", n)
	}
	ev, _ := env.Log.First(sim.EventMRMSwitched)
	if ev.Fields["from"] != "shoulder" || ev.Fields["to"] != "in_lane" {
		t.Errorf("switch fields = %v", ev.Fields)
	}
	if env.Log.Count(sim.EventMRMStarted) != 1 {
		t.Errorf("started events = %d, want 1", env.Log.Count(sim.EventMRMStarted))
	}
}

// End-to-end Fig. 1b fallback chain: a shoulder MRM loses steering
// mid-execution (shoulder -> in_lane), then suffers a severe but not
// total brake loss (in_lane -> emergency: the service stop needs more
// brake authority than the hard stop). One EventMRMSwitched per hop,
// and every hop's transition risk is recorded.
func TestFallbackChainFig1b(t *testing.T) {
	e, c := roadRig(t)
	env := e.Env()

	// Get up to road speed first so every stop genuinely takes time.
	if err := c.Dispatch(geom.MustPath(geom.V(100, 2), geom.V(900, 2)), 10); err != nil {
		t.Fatal(err)
	}
	e.RunFor(12 * time.Second)
	if c.Body().Speed() < 5 {
		t.Fatalf("rig never got up to speed: %v m/s", c.Body().Speed())
	}

	c.TriggerMRMTo(env, "shoulder", "obstacle ahead")
	if c.CurrentMRC().ID != "shoulder" {
		t.Fatalf("initial MRC = %v", c.CurrentMRC().ID)
	}
	c.ApplyFault(fault.Fault{ID: "steer", Target: "r1", Kind: fault.KindSteering,
		Severity: 1, Permanent: true})
	e.RunFor(time.Second)
	if c.CurrentMRC().ID != "in_lane" {
		t.Fatalf("after steering loss MRC = %v, want in_lane", c.CurrentMRC().ID)
	}
	if c.InMRC() {
		t.Fatal("in-lane stop completed before the brake fault; rig too slow")
	}

	c.ApplyFault(fault.Fault{ID: "brake", Target: "r1", Kind: fault.KindBrake,
		Severity: 0.92, Permanent: true})
	e.RunFor(90 * time.Second)
	if c.CurrentMRC().ID != "emergency" {
		t.Fatalf("after brake loss MRC = %v, want emergency", c.CurrentMRC().ID)
	}
	if !c.InMRC() {
		t.Errorf("mode = %v, want mrc", c.Mode())
	}

	sw := env.Log.ByKind(sim.EventMRMSwitched)
	if len(sw) != 2 {
		t.Fatalf("switch events = %d, want one per hop (2): %v", len(sw), sw)
	}
	hops := [][2]string{{"shoulder", "in_lane"}, {"in_lane", "emergency"}}
	for i, want := range hops {
		if sw[i].Fields["from"] != want[0] || sw[i].Fields["to"] != want[1] {
			t.Errorf("hop %d = %v -> %v, want %v -> %v",
				i, sw[i].Fields["from"], sw[i].Fields["to"], want[0], want[1])
		}
	}
	if env.Log.Count(sim.EventMRMStarted) != 1 {
		t.Errorf("started events = %d, want 1", env.Log.Count(sim.EventMRMStarted))
	}
	sum, max, n := c.TransitionRisk()
	if n < 3 {
		t.Errorf("manoeuvres recorded = %d, want >= 3 (initial + 2 hops)", n)
	}
	if sum <= 0 || max <= 0 || max > 1 {
		t.Errorf("transition risk sum=%v max=%v", sum, max)
	}
}

// Regression: the scripted MRM cruise used max(0.6*cap, 1), so a
// tactical cap below 1 m/s (a crawl ordered during a concerted
// episode, or a heavy degradation) was silently overridden and the
// vehicle drove faster than allowed. The planner's CruiseBound keeps
// the cap authoritative.
func TestDegradedCapBelowFloorStaysAuthoritative(t *testing.T) {
	e, c := roadRig(t)
	env := e.Env()

	c.AssistSlowdown(0.4)
	c.TriggerMRMTo(env, "shoulder", "crawl past the incident")
	if !c.plannedOK {
		t.Fatal("positional MRM should execute a planned trajectory")
	}
	if c.planned.Cruise > 0.4+1e-9 {
		t.Fatalf("planned cruise %v exceeds the 0.4 m/s cap", c.planned.Cruise)
	}
	e.RunFor(10 * time.Second)
	if v := c.Body().Speed(); v > 0.4+1e-6 {
		t.Errorf("speed %v exceeds the degraded cap mid-MRM", v)
	}
}
