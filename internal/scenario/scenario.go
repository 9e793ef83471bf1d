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
	"slices"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sensor"
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

// Rig assembly. Each constructor keeps what makes its site: the world
// geometry, the order in which it registers constituents, agents,
// policies and hooks (that order is part of the output bytes), and
// its policy wiring. It adds every constituent to its fleet as it
// registers it, and the fleet serves what all rigs share: the
// obstacle monitors' neighbour feed, the planners' obstacle snapshot
// and, as each constructor's last step, instrument's metrics and
// fault layers.

// Fleet is what every rig shares: the engine it runs on, its world,
// its constituents in registration order with the per-tick views of
// them, and the metrics and fault layers instrument attaches.
type Fleet struct {
	Engine    *sim.Engine
	World     *world.World
	Collector *metrics.Collector
	Injector  *fault.Injector

	cs []*core.Constituent
	// radius is each member's footprint half-diagonal.
	radius []float64
	// ids is scratch for instrument's parked-collector check.
	ids []string
	// snap is the planners' view: every member's observed state at
	// the start of the tick (see obstacles).
	snap []traj.Obstacle

	// The sensing index: the members' positions and a grid over them
	// (site i is member i), answering the neighbour feeds and the
	// collector's broad phase. moves counts the members' position
	// changes (every member's body bumps it, and add does); the index is
	// rebuilt on the first query after it changed, so it always holds
	// the positions a full scan would read. cell is the grid's cell
	// size, zero until the first build after a member joined.
	grid  *geom.Grid
	pos   []geom.Vec2
	moves uint64
	built uint64
	cell  float64
	near  []int
}

// newFleet returns an empty fleet on w and the engine every rig runs
// on: 100 ms ticks and a one-day ceiling.
func newFleet(w *world.World, seed int64) Fleet {
	return Fleet{Engine: sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, Seed: seed}), World: w}
}

// All returns every member in registration order.
func (f *Fleet) All() []*core.Constituent { return slices.Clone(f.cs) }

// Run executes the scenario for the horizon.
func (f *Fleet) Run(horizon time.Duration) Result {
	f.Engine.RunFor(horizon)
	return Result{Report: f.Collector.Report(), Log: f.Engine.Env().Log}
}

// add registers c as the fleet's next member and makes its body report
// position changes to the fleet's index.
func (f *Fleet) add(c *core.Constituent) {
	f.cs = append(f.cs, c)
	spec := c.Body().Spec()
	f.radius = append(f.radius, 0.5*math.Hypot(spec.Length, spec.Width))
	c.Body().CountMoves(&f.moves)
	f.moves++
	f.cell = 0
}

// neighbours returns the obstacle feed of self: the live positions of
// the other fleet members in the index cells that meet the box [lo,
// hi], in no particular order. That is a superset of the members
// inside the box, so the obstacle monitor's corridor test passes
// exactly the targets it passes on a scan of the whole fleet. The
// fleet is read at call time, so a feed made before the fleet is
// complete sees all of it. The closure reuses one scratch slice, so a
// steady-state tick allocates nothing; callers must not retain the
// result across calls.
func (f *Fleet) neighbours(self *core.Constituent) func(lo, hi geom.Vec2) []sensor.Target {
	var buf []sensor.Target
	return func(lo, hi geom.Vec2) []sensor.Target {
		buf = buf[:0]
		if len(f.cs) < 2 {
			return buf // alone: nothing to sense, no index to build
		}
		f.index()
		f.near = f.grid.Box(f.near[:0], lo, hi)
		for _, i := range f.near {
			if o := f.cs[i]; o != self {
				buf = append(buf, sensor.Target{ID: o.ID(), Pos: f.pos[i]})
			}
		}
		return buf
	}
}

// pairs is the collector's broad phase: the candidate pairs of the
// sensing index, whose sites are the members in probe order. Its
// cells are the largest footprint diagonal plus NearMissDist, so it
// pairs every two members whose centres lie that close.
func (f *Fleet) pairs(dst [][2]int) [][2]int {
	f.index()
	return f.grid.CandidatePairs(dst)
}

// index rebuilds the sensing index when a member moved or joined since
// the last build. Rigs that step every constituent before any agent
// rebuild once per tick, and the collector's post-hook reuses that
// build unless a member moved after the tick's last feed query; the
// harbour, which interleaves each forklift with its haul agent,
// rebuilds whenever a forklift moved in between. Neither a build per
// tick nor a travel allowance per tick would do: the first serves the
// harbour's later agents stale positions, and a body that takes a new
// path (vehicle.Body.SetPath) snaps onto it. The cells are the
// largest footprint diagonal plus NearMissDist, as the broad phase
// needs; a lane then holds about one member per cell, so a corridor
// query visits about one cell per member it could find. For the feeds
// the cell size bears on speed only: a box query serves every member
// inside the box whatever the cell.
func (f *Fleet) index() {
	if f.grid != nil && f.built == f.moves {
		return
	}
	if f.cell == 0 {
		for _, r := range f.radius {
			f.cell = max(f.cell, 2*r)
		}
		f.cell += metrics.NearMissDist
	}
	if f.grid == nil {
		f.grid = geom.NewGrid(f.cell)
	} else {
		f.grid.Reset(f.cell)
	}
	f.pos = f.pos[:0]
	for _, c := range f.cs {
		p := c.Body().Position()
		f.pos = append(f.pos, p)
		f.grid.Insert(p)
	}
	f.built = f.moves
}

// obstacles returns the planner feed of the member with the given ID:
// the snapshot minus that member. A pre-hook fills the snapshot once
// per tick, before any entity steps, so planners see the tick's
// pre-step state of every other member, never a live body that may
// already have stepped this tick: what a planner sees does not depend
// on where its constituent sits in the registration order, and
// reading live bodies instead would change the output bytes. The
// snapshot is empty until instrument takes the first one. The returned
// slice is reused across calls and must not be retained.
func (f *Fleet) obstacles(id string) func() []traj.Obstacle {
	var buf []traj.Obstacle
	return func() []traj.Obstacle {
		buf = buf[:0]
		for _, o := range f.snap {
			if o.ID != id {
				buf = append(buf, o)
			}
		}
		return buf
	}
}

// fill takes the planners' snapshot of every member.
func (f *Fleet) fill() {
	f.snap = f.snap[:0]
	for i, c := range f.cs {
		b := c.Body()
		f.snap = append(f.snap, traj.Obstacle{
			ID:     c.ID(),
			Pos:    b.Position(),
			Vel:    b.Pose().Forward().Scale(b.Speed()),
			Radius: f.radius[i],
		})
	}
}

// instrument completes a fleet: it takes the planners' first snapshot,
// so MRMs triggered before the engine runs plan against real
// positions, and attaches the snapshot's pre-hook, the collector's
// post-hook and then the injector's pre-hook, so faults due at a tick
// land after every other pre-hook. A parked collector (the warm
// quarry's; nil elsewhere) is reinitialised in place when its probe
// IDs match the fleet in order, else a fresh one is built. log
// observes injections and clears (nil for none). Every fault must
// target a fleet member.
func (f *Fleet) instrument(parked *metrics.Collector, log func(string, fault.Fault), faults []fault.Fault) error {
	for i, ft := range faults {
		if !slices.ContainsFunc(f.cs, func(c *core.Constituent) bool { return c.ID() == ft.Target }) {
			return fmt.Errorf("scenario: fault %d targets %q, which is not in the fleet", i, ft.Target)
		}
	}
	f.fill()
	f.Engine.AddPreHook(func(*sim.Env) { f.fill() })
	f.Collector = f.collector(parked)
	f.Engine.AddPostHook(f.Collector.Hook())
	f.Injector = fault.NewInjector(log)
	for _, c := range f.cs {
		f.Injector.RegisterHandler(c.ID(), c)
	}
	if err := f.Injector.Schedule(faults...); err != nil {
		return err
	}
	f.Engine.AddPreHook(f.Injector.Hook())
	return nil
}

// collector returns parked, reinitialised, when its probes describe
// the fleet in order, else a fresh collector with one probe per
// member over the fleet's broad phase. Reuse is sound because the
// probes close over constituent and body pointers the warm path
// re-adopts in place, and the broad phase over this fleet.
func (f *Fleet) collector(parked *metrics.Collector) *metrics.Collector {
	if parked != nil {
		f.ids = parked.ProbeIDs(f.ids[:0])
		if slices.EqualFunc(f.ids, f.cs, func(id string, c *core.Constituent) bool { return id == c.ID() }) {
			parked.Reinit()
			return parked
		}
	}
	probes := make([]metrics.Probe, len(f.cs))
	for i, c := range f.cs {
		probes[i] = probeFor(c, f.World)
	}
	return metrics.NewCollector(f.pairs, probes...)
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
		Interventions:  c.Interventions,
		InActiveLane: func() bool {
			pos := c.Body().Position()
			return w.HasZoneKindAt(world.ZoneLane, pos) ||
				w.HasZoneKindAt(world.ZoneTunnel, pos)
		},
	}
}

// newBase returns the cooperation substrate over one haul agent, with
// the site's world attached for zone-aware MRC choices.
func newBase(h *agent.HaulAgent, net *comm.Network, w *world.World, period time.Duration) *coop.Base {
	b := coop.NewBase(h, net, w.Graph(), period)
	b.World = w
	return b
}

// peersOf lists the IDs of every constituent in cs but self, in order.
func peersOf(cs []*core.Constituent, self *core.Constituent) []string {
	out := make([]string, 0, len(cs))
	for _, c := range cs {
		if c != self {
			out = append(out, c.ID())
		}
	}
	return out
}
