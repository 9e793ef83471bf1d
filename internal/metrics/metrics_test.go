package metrics

import (
	"strings"
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

type fakeVehicle struct {
	pos     geom.Vec2
	mode    string
	lane    bool
	stopped bool
}

func (f *fakeVehicle) probe(id string) Probe {
	return Probe{
		ID: id,
		Footprint: func() geom.OrientedBox {
			return geom.OrientedBox{Center: f.pos, Length: 4, Width: 2}
		},
		Mode:         func() string { return f.mode },
		InActiveLane: func() bool { return f.lane },
	}
}

// filteredProbe is probe with Stopped wired, so risk-relevance
// filtering applies to pairs involving this vehicle.
func (f *fakeVehicle) filteredProbe(id string) Probe {
	p := f.probe(id)
	p.Stopped = func() bool { return f.stopped }
	return p
}

func env(step time.Duration) *sim.Env {
	e := sim.NewEngine(sim.Config{Step: step})
	return e.Env()
}

func TestModeTimeAndOperationalShare(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b := &fakeVehicle{pos: geom.V(100, 0), mode: "mrc"}
	c := NewCollector(a.probe("a"), b.probe("b"))
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(c.Hook())
	e.RunFor(10 * time.Second)

	r := c.Report()
	if r.Duration != 10*time.Second {
		t.Errorf("duration = %v", r.Duration)
	}
	if got := r.ModeShare["a"]["nominal"]; got != 1 {
		t.Errorf("a nominal share = %v", got)
	}
	if got := r.ModeShare["b"]["mrc"]; got != 1 {
		t.Errorf("b mrc share = %v", got)
	}
	if r.OperationalShare != 0.5 {
		t.Errorf("operational share = %v, want 0.5", r.OperationalShare)
	}
}

func TestCollisionEdgeTriggered(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b := &fakeVehicle{pos: geom.V(100, 0), mode: "nominal"}
	c := NewCollector(a.probe("a"), b.probe("b"))
	ev := env(100 * time.Millisecond)

	c.Sample(ev)
	if c.Report().Collisions != 0 {
		t.Fatal("no collision yet")
	}
	b.pos = geom.V(3, 0) // overlapping
	c.Sample(ev)
	c.Sample(ev)
	c.Sample(ev)
	if got := c.Report().Collisions; got != 1 {
		t.Errorf("collisions = %d, want 1 (edge-triggered)", got)
	}
	// Separate and collide again: a second event.
	b.pos = geom.V(100, 0)
	c.Sample(ev)
	b.pos = geom.V(3, 0)
	c.Sample(ev)
	if got := c.Report().Collisions; got != 2 {
		t.Errorf("collisions = %d, want 2", got)
	}
	if ev.Log.Count(sim.EventCollision) != 2 {
		t.Error("collision events missing")
	}
}

// Regression: a continuous contact that spans a risk-relevance
// transition used to be double-counted. The latch was forced to false
// while the pair was filtered out, so the same unbroken overlap
// re-triggered a second collision (and near-miss) event on re-entry.
func TestContactLatchSurvivesRelevanceToggle(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "mrm"}
	b := &fakeVehicle{pos: geom.V(3, 0), mode: "nominal"} // overlapping
	c := NewCollector(a.filteredProbe("a"), b.filteredProbe("b"))
	ev := env(100 * time.Millisecond)

	c.Sample(ev)
	if got := c.Report().Collisions; got != 1 {
		t.Fatalf("collisions = %d, want 1", got)
	}
	// The pair toggles out of risk relevance mid-contact...
	a.mode = "nominal"
	c.Sample(ev)
	c.Sample(ev)
	// ...and back in, with the very same contact still unbroken.
	a.mode = "mrm"
	c.Sample(ev)
	if got := c.Report().Collisions; got != 1 {
		t.Errorf("collisions = %d, want 1 (one continuous contact)", got)
	}
	// A genuinely new contact after separation still counts.
	b.pos = geom.V(100, 0)
	c.Sample(ev)
	b.pos = geom.V(3, 0)
	c.Sample(ev)
	if got := c.Report().Collisions; got != 2 {
		t.Errorf("collisions = %d, want 2 after re-contact", got)
	}
}

// Same latch bug for near misses: a continuous sub-threshold approach
// spanning a relevance toggle is one event, not two.
func TestNearMissLatchSurvivesRelevanceToggle(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "mrm"}
	b := &fakeVehicle{pos: geom.V(4.5, 0), mode: "nominal"} // gap 0.5 < 1.0
	c := NewCollector(a.filteredProbe("a"), b.filteredProbe("b"))
	ev := env(100 * time.Millisecond)

	c.Sample(ev)
	a.mode = "nominal"
	c.Sample(ev)
	a.mode = "mrm"
	c.Sample(ev)
	if got := c.Report().NearMisses; got != 1 {
		t.Errorf("near misses = %d, want 1 (one continuous approach)", got)
	}
}

func TestNearMissAndMinSeparation(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b := &fakeVehicle{pos: geom.V(10, 0), mode: "nominal"}
	c := NewCollector(a.probe("a"), b.probe("b"))
	ev := env(100 * time.Millisecond)
	c.Sample(ev)
	b.pos = geom.V(4.5, 0) // gap = 0.5 < 1.0
	c.Sample(ev)
	c.Sample(ev)
	r := c.Report()
	if r.NearMisses != 1 {
		t.Errorf("near misses = %d, want 1", r.NearMisses)
	}
	if r.MinSeparation > 0.51 || r.MinSeparation < 0.49 {
		t.Errorf("min separation = %v", r.MinSeparation)
	}
}

func TestStoppedInLane(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "mrc", lane: true}
	c := NewCollector(a.probe("a"))
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(c.Hook())
	e.RunFor(5 * time.Second)
	if got := c.Report().StoppedInLane; got != 5*time.Second {
		t.Errorf("stopped in lane = %v", got)
	}
	// Not counted when off-lane.
	a.lane = false
	e.RunFor(5 * time.Second)
	if got := c.Report().StoppedInLane; got != 5*time.Second {
		t.Errorf("off-lane time counted: %v", got)
	}
}

func TestProductivityAndInterventions(t *testing.T) {
	n := 0
	c := NewCollector(Probe{
		ID:            "a",
		Mode:          func() string { return "nominal" },
		Interventions: func() int { return n },
	})
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(c.Hook())
	e.RunFor(2 * time.Minute)
	c.AddTaskUnits(6)
	n = 3
	r := c.Report()
	if r.Productivity != 3 {
		t.Errorf("productivity = %v units/min, want 3", r.Productivity)
	}
	if r.Interventions != 3 {
		t.Errorf("interventions = %d", r.Interventions)
	}
	if r.MinSeparation != -1 {
		t.Errorf("no pairs should report min separation -1, got %v", r.MinSeparation)
	}
	if c.TaskUnits() != 6 {
		t.Error("TaskUnits accessor wrong")
	}
}

// Report invariants: per-constituent mode shares must sum to ~1 over
// any run with positive duration, whatever the mode trajectory.
func TestModeSharesSumToOne(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b := &fakeVehicle{pos: geom.V(100, 0), mode: "nominal"}
	c := NewCollector(a.probe("a"), b.probe("b"))
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.AddPostHook(c.Hook())
	e.RunFor(3 * time.Second)
	a.mode = "degraded"
	e.RunFor(2 * time.Second)
	a.mode = "mrm"
	b.mode = "mrc"
	e.RunFor(1500 * time.Millisecond)

	r := c.Report()
	for id, share := range r.ModeShare {
		sum := 0.0
		for _, v := range share {
			if v < 0 {
				t.Errorf("%s: negative mode share %v", id, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: mode shares sum to %v, want ~1 (%v)", id, sum, share)
		}
	}
	if r.OperationalShare < 0 || r.OperationalShare > 1 {
		t.Errorf("operational share %v out of [0,1]", r.OperationalShare)
	}
}

// RiskExposure is non-negative always, and exactly zero when no MRC
// time is accrued — even with a StopRisk probe wired.
func TestRiskExposureZeroWithoutMRC(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	p := a.probe("a")
	p.StopRisk = func() float64 { return 0.8 }
	c := NewCollector(p)
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(c.Hook())
	e.RunFor(10 * time.Second)
	if got := c.Report().RiskExposure; got != 0 {
		t.Errorf("risk exposure = %v without any MRC time, want 0", got)
	}
	a.mode = "mrc"
	e.RunFor(5 * time.Second)
	r := c.Report()
	if r.RiskExposure <= 0 {
		t.Errorf("risk exposure = %v after 5s in MRC at risk 0.8", r.RiskExposure)
	}
	if want := 0.8 * 5; r.RiskExposure < want-1e-9 || r.RiskExposure > want+1e-9 {
		t.Errorf("risk exposure = %v, want %v", r.RiskExposure, want)
	}
}

// A zero-duration run must produce a well-defined report: no NaN or
// Inf shares, zero productivity and operational share.
func TestZeroDurationRunReport(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	c := NewCollector(a.probe("a"))
	c.AddTaskUnits(3) // units but no time: rate must stay finite
	r := c.Report()
	if r.Duration != 0 {
		t.Fatalf("duration = %v", r.Duration)
	}
	if r.Productivity != 0 {
		t.Errorf("productivity = %v for zero duration, want 0", r.Productivity)
	}
	if r.OperationalShare != 0 {
		t.Errorf("operational share = %v for zero duration, want 0", r.OperationalShare)
	}
	for id, share := range r.ModeShare {
		for m, v := range share {
			if v != 0 {
				t.Errorf("%s/%s share = %v for zero duration", id, m, v)
			}
		}
	}
}

func TestEmptyReport(t *testing.T) {
	r := NewCollector().Report()
	if r.Duration != 0 || r.Productivity != 0 || r.OperationalShare != 0 {
		t.Errorf("zero report = %+v", r)
	}
}

func TestReportString(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	c := NewCollector(a.probe("a"))
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(c.Hook())
	e.RunFor(time.Second)
	s := c.Report().String()
	for _, want := range []string{"productivity", "collisions", "nominal=100%"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}
