// Package collab implements the three collaborative interaction
// classes of the paper's Table I: coordinated, choreographed, and
// orchestrated. All share a common strategic goal; they differ in how
// (and whether) they communicate to keep pursuing it when a
// constituent reaches MRC.
//
// MRM/MRC characteristics reproduced per class (Table I):
//
//   - coordinated: constituents communicate peer-to-peer; on a
//     member's MRC they agree on reroutes or task reallocation (local
//     MRC) or on a joint park-and-stop (global MRC).
//   - choreographed: no communication; the designed-in behaviour
//     (check-in deadlines, predetermined alternate routes or halts)
//     covers local and global MRCs.
//   - orchestrated: a directing entity (TMS) assigns tasks, reroutes
//     survivors (local MRC), or stops everyone — immediately or via a
//     concerted drive-to-parking (global MRC).
package collab

import (
	"slices"
	"strings"
	"time"

	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/sim"
)

// Coordinated is the peer-to-peer collaborative policy. Every member
// shares the same dependency model; when beacons show members in MRM
// or MRC, each survivor independently derives the same scope decision
// (deterministic agreement over shared state, standing in for the
// explicit consent round): continue with reroutes on a local MRC, or
// drive to parking and stop on a global one.
//
// The decision is a pure function of the stopped-peer set the base
// keeps, and a member acts on it only while operational, so the
// member resolves the scope only when that set has changed or the
// member has just become operational again.
type Coordinated struct {
	base  *coop.Base
	Model *core.DependencyModel

	resolved int      // the base's StopChanges at the last resolution; -1 forces one
	stopped  []string // scratch for the stopped-peer set
}

var _ sim.Entity = (*Coordinated)(nil)

// NewCoordinated wires the policy.
func NewCoordinated(base *coop.Base, model *core.DependencyModel) *Coordinated {
	return &Coordinated{base: base, Model: model, resolved: -1}
}

// ID implements sim.Entity.
func (p *Coordinated) ID() string { return p.base.C().ID() + ":coordinated" }

// Step implements sim.Entity.
func (p *Coordinated) Step(env *sim.Env) {
	c := p.base.C()
	for _, m := range p.base.Net.Receive(c.ID()) {
		p.base.HandleStatus(m)
	}
	switch {
	case !c.Operational():
		p.resolved = -1 // a recovered member resolves again
	case p.base.StopChanges() != p.resolved:
		p.resolved = p.base.StopChanges()
		p.resolve(env)
	}
	p.base.BeaconIfDue(env)
}

// resolve derives the scope from the stopped peers and acts on it. A
// member never hears its own beacon, and it resolves only while
// operational, so it is never in the failed set itself.
func (p *Coordinated) resolve(env *sim.Env) {
	c := p.base.C()
	p.stopped = p.base.StoppedPeers(p.stopped[:0])
	dec := p.Model.ResolveScope(p.stopped...)
	switch {
	case dec.Level == core.ScopeGlobal:
		env.EmitFields(sim.EventMRCGlobal, c.ID(), "coordinated global MRC: parking",
			map[string]string{"affected": strings.Join(dec.Affected, ",")})
		env.Emit(sim.EventMRMConcerted, c.ID(),
			"concerted global MRM: agreed drive to "+parkMRC)
		c.TriggerMRMTo(env, parkMRC, "coordinated global MRC")
	case slices.Contains(dec.Affected, c.ID()):
		env.EmitFields(sim.EventMRCLocal, c.ID(), "coordinated local MRC: "+dec.Reasons[c.ID()],
			map[string]string{"affected": strings.Join(dec.Affected, ",")})
		c.TriggerMRMTo(env, parkMRC, dec.Reasons[c.ID()])
	}
}

// CheckInBoard is the designed-in observation point used by the
// choreographed class: vehicles physically checking in at the deposit
// are observable without V2X (think a gate sensor). It is not a
// communication channel — members only read arrival times.
type CheckInBoard struct {
	last map[string]time.Duration
}

// NewCheckInBoard returns an empty board.
func NewCheckInBoard() *CheckInBoard {
	return &CheckInBoard{last: make(map[string]time.Duration)}
}

// Record notes a check-in at the given time.
func (b *CheckInBoard) Record(id string, at time.Duration) { b.last[id] = at }

// Last returns the last check-in time of id and whether one exists.
func (b *CheckInBoard) Last(id string) (time.Duration, bool) {
	t, ok := b.last[id]
	return t, ok
}
