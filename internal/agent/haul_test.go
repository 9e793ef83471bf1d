package agent

import (
	"testing"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// mineWorld builds: load -(mid)- dep with an alternate route via alt.
func mineWorld() *world.World {
	w := world.New()
	g := w.Graph()
	g.AddNode("load", geom.V(0, 0))
	g.AddNode("mid", geom.V(100, 0))
	g.AddNode("dep", geom.V(200, 0))
	g.AddNode("alt", geom.V(100, 80))
	g.MustConnect("load", "mid")
	g.MustConnect("mid", "dep")
	g.MustConnect("load", "alt")
	g.MustConnect("alt", "dep")
	w.MustAddZone(world.Zone{ID: "park", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(-40, -40), geom.V(-20, -20))})
	return w
}

func newAgentRig(t *testing.T, neighbors func(lo, hi geom.Vec2) []sensor.Target) (*sim.Engine, *HaulAgent, *core.Constituent) {
	t.Helper()
	w := mineWorld()
	c := core.MustConstituent(core.Config{
		ID:    "truck1",
		Spec:  vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0)},
		World: w,
	})
	a := New(Config{
		C:            c,
		Graph:        w.Graph(),
		Loop:         []string{"dep", "load"},
		DepositNodes: map[string]bool{"dep": true},
		Speed:        10,
		Neighbors:    neighbors,
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	e.MustRegister(a)
	return e, a, c
}

func TestHaulLoopDelivers(t *testing.T) {
	e, a, _ := newAgentRig(t, nil)
	e.RunFor(3 * time.Minute)
	if a.Delivered() < 3 {
		t.Errorf("delivered = %v, want >= 3 in 3 minutes", a.Delivered())
	}
	if got := e.Env().Log.Count(sim.EventTaskDone); float64(got) != a.Delivered() {
		t.Errorf("task events = %d, delivered = %v", got, a.Delivered())
	}
}

func TestAvoidReroutes(t *testing.T) {
	e, a, c := newAgentRig(t, nil)
	e.RunFor(2 * time.Second) // en route toward dep via mid
	a.Avoid("mid")
	if !a.Avoided("mid") {
		t.Fatal("Avoided not recorded")
	}
	e.RunFor(2 * time.Second) // replanned
	path := c.Body().Path()
	if path == nil {
		t.Fatal("no path after replan")
	}
	viaAlt := false
	for _, p := range path.Points() {
		if p.ApproxEq(geom.V(100, 80), 1e-6) {
			viaAlt = true
		}
		if p.ApproxEq(geom.V(100, 0), 1e-6) {
			t.Error("replanned path still visits mid")
		}
	}
	if !viaAlt {
		t.Error("replanned path does not use alt")
	}
	e.RunFor(3 * time.Minute)
	if a.Delivered() < 2 {
		t.Errorf("rerouted agent should still deliver, got %v", a.Delivered())
	}
}

func TestStuckAndRecovery(t *testing.T) {
	e, a, _ := newAgentRig(t, nil)
	a.Avoid("mid")
	a.Avoid("alt")
	e.RunFor(5 * time.Second)
	if !a.stuck {
		t.Fatal("agent should be stuck with both routes avoided")
	}
	before := a.Delivered()
	e.RunFor(30 * time.Second)
	if a.Delivered() != before {
		t.Error("stuck agent should not deliver")
	}
	a.Unavoid("mid")
	a.Replan()
	e.RunFor(time.Minute)
	if a.stuck || a.Delivered() <= before {
		t.Errorf("agent should recover: stuck=%v delivered=%v", a.stuck, a.Delivered())
	}
}

func TestObstacleHold(t *testing.T) {
	obstacle := geom.V(50, 0) // on the first leg
	active := true
	neighbors := func(_, _ geom.Vec2) []sensor.Target {
		if !active {
			return nil
		}
		return []sensor.Target{{ID: "blocker", Pos: obstacle}}
	}
	e, _, c := newAgentRig(t, neighbors)
	e.RunFor(time.Minute)
	if !c.Holding() {
		t.Fatalf("agent should hold before obstacle; pos=%v speed=%v",
			c.Body().Position(), c.Body().Speed())
	}
	if !c.Body().Stopped() {
		t.Errorf("holding agent should be stopped, speed=%v", c.Body().Speed())
	}
	// Vehicle must have stopped short of the obstacle.
	if c.Body().Position().X >= obstacle.X-1 {
		t.Errorf("stopped too close: %v", c.Body().Position())
	}
	active = false
	e.RunFor(2 * time.Minute)
	if c.Holding() {
		t.Error("hold should release when the obstacle leaves")
	}
}

func TestAgentIdlesInMRC(t *testing.T) {
	e, a, c := newAgentRig(t, nil)
	e.RunFor(5 * time.Second)
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(30 * time.Second)
	if !c.InMRC() {
		t.Fatalf("setup: mode %v", c.Mode())
	}
	before := a.Delivered()
	e.RunFor(time.Minute)
	if a.Delivered() != before {
		t.Error("agent must not deliver while constituent is in MRC")
	}
}

func TestEmptyLoop(t *testing.T) {
	w := mineWorld()
	c := core.MustConstituent(core.Config{ID: "t", World: w})
	a := New(Config{C: c, Graph: w.Graph()})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	e.MustRegister(a)
	e.RunFor(time.Second) // must not panic
	if a.Delivered() != 0 || a.target != "" {
		t.Error("empty loop should do nothing")
	}
}

// Service gating: the truck waits at the service node until the gate
// opens, then departs after the service time.
func TestServiceGateAndTime(t *testing.T) {
	w := mineWorld()
	c := core.MustConstituent(core.Config{
		ID: "truck1", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0)}, World: w,
	})
	gate := false
	a := New(Config{
		C: c, Graph: w.Graph(),
		Loop:         []string{"dep", "load"},
		DepositNodes: map[string]bool{"dep": true},
		Speed:        10,
		ServiceNodes: map[string]bool{"load": true},
		ServiceTime:  5 * time.Second,
		ServiceGate:  func() bool { return gate },
	})
	if a.Constituent() != c {
		t.Fatal("Constituent accessor wrong")
	}
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	e.MustRegister(a)
	// First delivery at dep, then the truck returns to load and waits
	// for service.
	e.RunFor(2 * time.Minute)
	if a.Delivered() != 1 {
		t.Fatalf("delivered = %v, want exactly 1 (gate closed)", a.Delivered())
	}
	if !a.InService() {
		t.Fatal("truck should be waiting in service")
	}
	gate = true
	e.RunFor(2 * time.Minute)
	if a.Delivered() < 2 {
		t.Errorf("delivered = %v after the gate opened", a.Delivered())
	}
}
