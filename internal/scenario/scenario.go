// Package scenario composes the substrate and policy layers into the
// named situations used by the paper, the experiment harness, and the
// examples: the quarry (digger/truck pairs), the harbour (crane and
// forklifts), the highway (individual AV and mixed traffic), and the
// platoon. Each builder returns a rig exposing the engine and the
// relevant components so experiments can inject faults and read
// results.
package scenario

import (
	"fmt"
	"math"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sim"
	"coopmrm/internal/traj"
	"coopmrm/internal/world"
)

// PolicyKind selects the interaction class wired into a rig.
type PolicyKind int

// Policy kinds: the individual-AV baseline plus the seven classes of
// Table I.
const (
	PolicyBaseline PolicyKind = iota + 1
	PolicyStatusSharing
	PolicyIntentSharing
	PolicyAgreementSeeking
	PolicyPrescriptive
	PolicyCoordinated
	PolicyChoreographed
	PolicyOrchestrated
)

var policyNames = map[PolicyKind]string{
	PolicyBaseline:         "baseline",
	PolicyStatusSharing:    "status_sharing",
	PolicyIntentSharing:    "intent_sharing",
	PolicyAgreementSeeking: "agreement_seeking",
	PolicyPrescriptive:     "prescriptive",
	PolicyCoordinated:      "coordinated",
	PolicyChoreographed:    "choreographed",
	PolicyOrchestrated:     "orchestrated",
}

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// AllPolicies lists every policy kind including the baseline, in
// Table I order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{
		PolicyBaseline,
		PolicyStatusSharing,
		PolicyIntentSharing,
		PolicyAgreementSeeking,
		PolicyPrescriptive,
		PolicyCoordinated,
		PolicyChoreographed,
		PolicyOrchestrated,
	}
}

// Result is what a rig run returns.
type Result struct {
	Report metrics.Report
	Log    *sim.EventLog
}

// probeFor builds the standard metrics probe of a constituent.
func probeFor(c *core.Constituent, w *world.World) metrics.Probe {
	return metrics.Probe{
		ID:             c.ID(),
		Footprint:      c.Body().Footprint,
		Mode:           func() string { return c.Mode().String() },
		Stopped:        c.Body().Stopped,
		StopRisk:       func() float64 { return w.StopRiskAt(c.Body().Position()) },
		TransitionRisk: c.TransitionRisk,
		InActiveLane: func() bool {
			pos := c.Body().Position()
			return w.HasZoneKindAt(world.ZoneLane, pos) ||
				w.HasZoneKindAt(world.ZoneTunnel, pos)
		},
	}
}

// obstacleSnapshot feeds the constituents' trajectory planners: a
// pre-hook copies every constituent's observed state into a read-only
// snapshot once per tick, and obstaclesFor serves everyone-but-self
// views of it. Planners therefore see the tick's pre-step state of
// every other constituent, never a live body that may already have
// stepped this tick: what a planner sees does not depend on where its
// constituent sits in the registration order, and reading live bodies
// instead would change the output bytes.
type obstacleSnapshot struct {
	cs    []*core.Constituent
	radii []float64
	snap  []traj.Obstacle
}

// track registers the constituents. Call once after rig construction,
// before the first tick; it also takes the initial snapshot so MRMs
// triggered before the engine runs plan against real positions.
func (s *obstacleSnapshot) track(cs []*core.Constituent) {
	s.cs = cs
	s.radii = make([]float64, len(cs))
	s.snap = make([]traj.Obstacle, len(cs))
	for i, c := range cs {
		spec := c.Body().Spec()
		s.radii[i] = 0.5 * math.Hypot(spec.Length, spec.Width)
	}
	s.fill()
}

func (s *obstacleSnapshot) fill() {
	for i, c := range s.cs {
		b := c.Body()
		s.snap[i] = traj.Obstacle{
			ID:     c.ID(),
			Pos:    b.Position(),
			Vel:    b.Pose().Forward().Scale(b.Speed()),
			Radius: s.radii[i],
		}
	}
}

// hook returns the per-tick refresh; register it as a pre-hook so the
// snapshot is filled before any entity steps.
func (s *obstacleSnapshot) hook() sim.Hook { return func(*sim.Env) { s.fill() } }

// obstaclesFor returns the planner feed for the constituent with the
// given ID: the current snapshot minus itself. The returned slice is
// reused across calls and must not be retained.
func (s *obstacleSnapshot) obstaclesFor(id string) func() []traj.Obstacle {
	var buf []traj.Obstacle
	return func() []traj.Obstacle {
		buf = buf[:0]
		for _, o := range s.snap {
			if o.ID != id {
				buf = append(buf, o)
			}
		}
		return buf
	}
}

// runFor drives an engine for the horizon and packages the result.
func runFor(e *sim.Engine, col *metrics.Collector, horizon time.Duration) Result {
	e.RunFor(horizon)
	return Result{Report: col.Report(), Log: e.Env().Log}
}
