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
// obstacle monitors' neighbour feed and, as each constructor's last
// step, instrument's metrics and fault layers.

// newEngine returns the engine every rig runs on: 100 ms ticks and a
// one-day ceiling.
func newEngine(seed int64) *sim.Engine {
	return sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, Seed: seed})
}

// fleet is a rig's constituents in registration order.
type fleet struct {
	cs []*core.Constituent
	// ids is scratch for instrument's parked-collector check.
	ids []string

	// The sensing index: the members' positions and a grid over them
	// (site i is member i), answering the neighbour feeds. moves counts the members' position
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

// senseMargin is added to the members' largest footprint diagonal to
// size the index cells, as the metrics collector adds its near-miss
// distance: a lane then holds about one member per cell, so a corridor
// query visits about one cell per member it could find. The cell size
// bears on speed only: a box query serves every member inside the box
// whatever the cell.
const senseMargin = 1.0

// add registers c as the fleet's next member and makes its body report
// position changes to the fleet's index.
func (f *fleet) add(c *core.Constituent) {
	f.cs = append(f.cs, c)
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
func (f *fleet) neighbours(self *core.Constituent) func(lo, hi geom.Vec2) []sensor.Target {
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

// index rebuilds the sensing index when a member moved or joined since
// the last build. Rigs that step every constituent before any agent
// rebuild once per tick; the harbour, which interleaves each forklift
// with its haul agent, rebuilds whenever a forklift moved in between.
// Neither a build per tick nor a travel allowance per tick would do:
// the first serves the harbour's later agents stale positions, and a
// body that takes a new path (vehicle.Body.SetPath) snaps onto it.
func (f *fleet) index() {
	if f.grid != nil && f.built == f.moves {
		return
	}
	if f.cell == 0 {
		for _, c := range f.cs {
			spec := c.Body().Spec()
			f.cell = max(f.cell, math.Hypot(spec.Length, spec.Width))
		}
		f.cell += senseMargin
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

// instrument attaches the metrics and fault layers to a complete
// fleet: the collector's post-hook, then the injector's pre-hook, so
// faults due at a tick land after every other pre-hook. A parked
// collector (the warm quarry's; nil elsewhere) is reinitialised in
// place when its probe IDs match the fleet in order, else a fresh one
// is built. log observes injections and clears (nil for none). Every
// fault must target a fleet member.
func (f *fleet) instrument(e *sim.Engine, w *world.World, parked *metrics.Collector,
	log func(string, fault.Fault), faults []fault.Fault) (*metrics.Collector, *fault.Injector, error) {
	for i, ft := range faults {
		if !slices.ContainsFunc(f.cs, func(c *core.Constituent) bool { return c.ID() == ft.Target }) {
			return nil, nil, fmt.Errorf("scenario: fault %d targets %q, which is not in the fleet", i, ft.Target)
		}
	}
	col := f.collector(w, parked)
	e.AddPostHook(col.Hook())
	inj := fault.NewInjector(log)
	for _, c := range f.cs {
		inj.RegisterHandler(c.ID(), c)
	}
	if err := inj.Schedule(faults...); err != nil {
		return nil, nil, err
	}
	e.AddPreHook(inj.Hook())
	return col, inj, nil
}

// collector returns parked, reinitialised, when its probes describe
// the fleet in order, else a fresh collector with one probe per
// member. Reuse is sound because the probes close over constituent
// and body pointers the warm path re-adopts in place.
func (f *fleet) collector(w *world.World, parked *metrics.Collector) *metrics.Collector {
	if parked != nil {
		f.ids = parked.ProbeIDs(f.ids[:0])
		if slices.EqualFunc(f.ids, f.cs, func(id string, c *core.Constituent) bool { return id == c.ID() }) {
			parked.Reinit()
			return parked
		}
	}
	probes := make([]metrics.Probe, len(f.cs))
	for i, c := range f.cs {
		probes[i] = probeFor(c, w)
	}
	return metrics.NewCollector(probes...)
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
