package agent

import (
	"testing"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// planWorld: a(0,0) - m(100,0) - b(200,0) with detour a - alt(100,80) - b.
func planWorld() *world.World {
	w := world.New()
	g := w.Graph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("m", geom.V(100, 0))
	g.AddNode("b", geom.V(200, 0))
	g.AddNode("alt", geom.V(100, 80))
	g.MustConnect("a", "m")
	g.MustConnect("m", "b")
	g.MustConnect("a", "alt")
	g.MustConnect("alt", "b")
	w.MustAddZone(world.Zone{ID: "tunnel", Kind: world.ZoneTunnel,
		Area: geom.NewRect(geom.V(20, -5), geom.V(180, 5))})
	return w
}

func planConstituent(w *world.World, at geom.Vec2) *core.Constituent {
	return core.MustConstituent(core.Config{
		ID: "v", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: at}, World: w,
	})
}

// The vehicle sits on the first route leg: the leading waypoint must
// be dropped so it does not backtrack.
func TestPlanLegPathDropsPassedWaypoint(t *testing.T) {
	w := planWorld()
	c := planConstituent(w, geom.V(30, 0)) // on segment a-m, nearest node a
	p, err := PlanLegPath(c, w.Graph(), "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := p.Points()
	if pts[0] != geom.V(30, 0) {
		t.Fatalf("path must start at the vehicle: %v", pts)
	}
	for _, q := range pts[1:] {
		if q.X < 30 {
			t.Errorf("path backtracks through %v: %v", q, pts)
		}
	}
}

// The vehicle is NOT on the detour's first leg: the detour entry must
// be kept even though the target is "behind" it.
func TestPlanLegPathKeepsDetourEntry(t *testing.T) {
	w := planWorld()
	c := planConstituent(w, geom.V(120, 0)) // nearest node m
	av := world.Avoidance{Edges: map[[2]string]bool{{"a", "m"}: true}}
	p, err := PlanLegPathWith(c, w.Graph(), "a", av)
	if err != nil {
		t.Fatal(err)
	}
	// Route m->b->alt->a: the b waypoint (detour entry at x=200) must
	// survive even though a is at x=0.
	sawDetour := false
	for _, q := range p.Points() {
		if q.ApproxEq(geom.V(200, 0), 1e-6) || q.ApproxEq(geom.V(100, 80), 1e-6) {
			sawDetour = true
		}
	}
	if !sawDetour {
		t.Errorf("detour entry dropped: %v", p.Points())
	}
}

func TestPlanLegPathNoGraph(t *testing.T) {
	w := world.New()
	c := planConstituent(w, geom.V(0, 0))
	if _, err := PlanLegPath(c, w.Graph(), "x", nil); err == nil {
		t.Error("empty graph should error")
	}
}

func TestObstacleMonitorPassAroundOutsideTunnel(t *testing.T) {
	w := planWorld()
	mover := planConstituent(w, geom.V(185, 0)) // outside tunnel (ends at 180)
	obstaclePos := geom.V(192, 0)
	mon := NewObstacleMonitor(mover, func() []sensor.Target {
		return []sensor.Target{{ID: "o", Pos: obstaclePos}}
	}, w)
	// The monitor runs every tick in real use; mirror that.
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	env := e.Env()
	step := func(d time.Duration) {
		for el := time.Duration(0); el < d; el += 100 * time.Millisecond {
			mon.Apply(env)
			e.RunTick()
		}
		mon.Apply(env)
	}

	step(time.Second)
	if !mover.Holding() {
		t.Fatal("should hold for the obstacle")
	}
	// Patience expires outside the tunnel: pass-around.
	step(mon.Patience)
	if mover.Holding() {
		t.Error("pass-around should release the hold outside tunnels")
	}
	// During the pass window the hold stays released.
	step(time.Second)
	if mover.Holding() {
		t.Error("hold must stay released during the pass window")
	}
	// After the window it re-engages (the obstacle is still there).
	step(passWindow)
	if !mover.Holding() {
		t.Error("hold should re-engage after the pass window")
	}
}

func TestObstacleMonitorTunnelHoldsForever(t *testing.T) {
	w := planWorld()
	mover := planConstituent(w, geom.V(94, 0))
	mon := NewObstacleMonitor(mover, func() []sensor.Target {
		return []sensor.Target{{ID: "o", Pos: geom.V(100, 0)}} // in tunnel
	}, w)
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	env := e.Env()
	for d := time.Duration(0); d < mon.Patience*3; d += 100 * time.Millisecond {
		mon.Apply(env)
		if !mover.Holding() {
			t.Fatalf("tunnel obstacle must hold at %v", env.Clock.Now())
		}
		e.RunTick()
	}
}

func TestObstacleMonitorIgnoresLateralAndRear(t *testing.T) {
	w := planWorld()
	mover := planConstituent(w, geom.V(100, 0)) // heading +x
	targets := []sensor.Target{
		{ID: "lateral", Pos: geom.V(110, 10)}, // 10m off the corridor
		{ID: "behind", Pos: geom.V(80, 0)},
	}
	mon := NewObstacleMonitor(mover, func() []sensor.Target { return targets }, w)
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	mon.Apply(e.Env())
	if mover.Holding() {
		t.Error("lateral and rear targets must not hold")
	}
}

func TestHaulAgentReplansWhileHeld(t *testing.T) {
	// A held vehicle must still replan: once it learns about the
	// blockage (edge avoid) the new route turns it away and the hold
	// releases.
	w := planWorld()
	blocked := geom.V(60, 0) // on the a-m segment, inside the tunnel
	c := planConstituent(w, geom.V(30, 0))
	h := New(Config{
		C: c, Graph: w.Graph(),
		Loop:         []string{"b", "a"},
		DepositNodes: map[string]bool{"b": true},
		Speed:        8,
		World:        w,
		Neighbors: func() []sensor.Target {
			return []sensor.Target{{ID: "wreck", Pos: blocked}}
		},
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	e.MustRegister(h)
	e.RunFor(5 * time.Second)
	if !c.Holding() {
		t.Fatalf("setup: should be held behind the wreck (pos %v)", c.Body().Position())
	}
	// Learn about the blockage (as status-sharing would).
	h.AvoidEdge("a", "m")
	e.RunFor(2 * time.Minute)
	if c.Holding() {
		t.Errorf("replanned vehicle should no longer hold (pos %v)", c.Body().Position())
	}
	if h.Delivered() == 0 {
		t.Errorf("vehicle should deliver via the detour, at %v", c.Body().Position())
	}
}

func TestHaulAgentEdgeAvoidAccessors(t *testing.T) {
	w := planWorld()
	c := planConstituent(w, geom.V(0, 0))
	h := New(Config{C: c, Graph: w.Graph(), Loop: []string{"b"}})
	h.AvoidEdge("a", "m")
	if !h.AvoidedEdge("a", "m") || !h.AvoidedEdge("m", "a") {
		t.Error("AvoidedEdge must be symmetric")
	}
	h.UnavoidEdge("m", "a")
	if h.AvoidedEdge("a", "m") {
		t.Error("UnavoidEdge failed")
	}
}
