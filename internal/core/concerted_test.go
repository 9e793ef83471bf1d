package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
)

// concertedRig builds an initiator and n helpers driving on parallel
// lanes.
func concertedRig(t *testing.T, n int) (*sim.Engine, *ConcertedMRM, *Constituent, []*Constituent) {
	t.Helper()
	w := roadWorld()
	roadODD := odd.DefaultRoadSpec()
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	init := MustConstituent(Config{ID: "ego", Spec: vehicle.DefaultSpec(vehicle.KindCar),
		Start: geom.Pose{Pos: geom.V(100, 2)}, World: w, ODD: &roadODD,
		Hierarchy: DefaultRoadHierarchy()})
	e.MustRegister(init)
	var helpers []*Constituent
	for i := 0; i < n; i++ {
		h := MustConstituent(Config{ID: fmt.Sprintf("nbr%d", i),
			Spec:  vehicle.DefaultSpec(vehicle.KindCar),
			Start: geom.Pose{Pos: geom.V(80-float64(i)*15, 2)}, World: w, ODD: &roadODD,
			Hierarchy: DefaultRoadHierarchy()})
		_ = h.Dispatch(geom.MustPath(h.Body().Position(), geom.V(5000, 2)), 25)
		e.MustRegister(h)
		helpers = append(helpers, h)
	}
	ep := NewConcertedMRM(init, helpers, "perception failure")
	e.MustRegister(ep)
	return e, ep, init, helpers
}

func TestConcertedLifecycle(t *testing.T) {
	e, ep, init, helpers := concertedRig(t, 2)
	_ = init.Dispatch(geom.MustPath(geom.V(100, 2), geom.V(5000, 2)), 25)
	e.RunFor(10 * time.Second)
	if ep.started || ep.Completed() {
		t.Fatal("episode should be inert before Start")
	}
	ep.Start(e.Env())
	if !ep.started {
		t.Fatal("Start did not start")
	}
	if !init.MRMActive() && !init.InMRC() {
		t.Fatal("initiator MRM not triggered")
	}
	for _, h := range helpers {
		if !h.Assisting() {
			t.Error("helper not assisting")
		}
	}
	e.RunFor(3 * time.Minute)
	if !ep.Completed() {
		t.Fatalf("episode not completed; initiator mode %v speed %v",
			init.Mode(), init.Body().Speed())
	}
	// Definition 3 invariant: at least one involved constituent is in
	// MRC.
	if !init.InMRC() {
		t.Error("completed concerted MRM without any constituent in MRC")
	}
	for _, h := range helpers {
		if h.Assisting() {
			t.Error("helper not released after completion")
		}
		if !h.Operational() {
			t.Error("helper should remain operational")
		}
	}
	if e.Env().Log.Count(sim.EventMRMConcerted) != 2 {
		t.Errorf("concerted events = %d, want start+complete",
			e.Env().Log.Count(sim.EventMRMConcerted))
	}
}

func TestConcertedHelpersSlowDown(t *testing.T) {
	e, ep, _, helpers := concertedRig(t, 1)
	e.RunFor(20 * time.Second)
	h := helpers[0]
	if h.Body().Speed() < 20 {
		t.Fatalf("setup: helper speed %v", h.Body().Speed())
	}
	ep.Start(e.Env())
	e.RunFor(30 * time.Second)
	if !ep.Completed() && h.Body().Speed() > ep.AssistSpeed+1e-6 {
		t.Errorf("helper speed %v above assist bound %v", h.Body().Speed(), ep.AssistSpeed)
	}
}

func TestConcertedNoHelpers(t *testing.T) {
	e, ep, init, _ := concertedRig(t, 0)
	ep.Start(e.Env())
	e.RunFor(3 * time.Minute)
	if !ep.Completed() || !init.InMRC() {
		t.Error("degenerate concerted MRM should still complete")
	}
}

func TestConcertedStartIdempotent(t *testing.T) {
	e, ep, _, _ := concertedRig(t, 1)
	ep.Start(e.Env())
	ep.Start(e.Env()) // must be a no-op
	if got := e.Env().Log.Count(sim.EventMRMConcerted); got != 1 {
		t.Errorf("start events = %d, want 1", got)
	}
}

func TestConcertedAccessors(t *testing.T) {
	_, ep, init, helpers := concertedRig(t, 2)
	if ep.initiator != init || len(ep.helpers) != len(helpers) {
		t.Error("accessors wrong")
	}
	if ep.ID() != "concerted:ego" {
		t.Errorf("ID = %q", ep.ID())
	}
}

// Property (E13): for random helper counts and assist speeds, a
// completed episode always has the initiator in MRC and all helpers
// released and operational.
func TestConcertedInvariantProperty(t *testing.T) {
	f := func(nHelpers uint8, assistTenths uint8) bool {
		n := int(nHelpers)%4 + 1
		e, ep, init, helpers := concertedRig(t, n)
		ep.AssistSpeed = 0.5 + float64(assistTenths%50)/10
		_ = init.Dispatch(geom.MustPath(geom.V(100, 2), geom.V(5000, 2)), 25)
		e.RunFor(5 * time.Second)
		ep.Start(e.Env())
		e.RunFor(4 * time.Minute)
		if !ep.Completed() {
			return false
		}
		if !init.InMRC() {
			return false
		}
		for _, h := range helpers {
			if h.Assisting() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// A stuck initiator must not hold helpers hostage: the episode times
// out, releases them, and reports failure (not completion).
func TestConcertedTimeoutReleasesHelpers(t *testing.T) {
	e, ep, init, helpers := concertedRig(t, 2)
	ep.Timeout = 30 * time.Second
	// Brakes totally gone AND idle (no path): the initiator can never
	// reach a stopped MRC state on its own while "moving" is moot —
	// force a state where MRC is unreachable by keeping it in MRM with
	// a target it cannot reach: kill propulsion and steering mid-MRM
	// toward the rest stop.
	_ = init.Dispatch(geom.MustPath(geom.V(100, 2), geom.V(5000, 2)), 25)
	e.RunFor(5 * time.Second)
	ep.Start(e.Env())
	// Freeze the initiator's progress: propulsion dies and the MRM
	// falls back, but we teleport it away from every zone so the
	// positional checks never complete... simplest reliable stall:
	// give it an empty world by parking it far outside all zones with
	// a cleared path and a tiny crawl that never reaches the target.
	init.Body().Teleport(geom.Pose{Pos: geom.V(50000, 50000)})
	e.RunFor(time.Minute)
	if ep.Completed() && !init.InMRC() {
		t.Fatal("completed without MRC — invariant broken")
	}
	if !ep.Completed() {
		if !ep.failed {
			t.Fatal("episode neither completed nor failed after the timeout")
		}
		for _, h := range helpers {
			if h.Assisting() {
				t.Error("helpers must be released on timeout")
			}
		}
	}
}
