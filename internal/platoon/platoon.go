// Package platoon implements the collaborative platoon of the
// paper's Sec. III-B case (iv): a convoy with one leader whose
// extended forward perception covers the followers. When the leader
// loses its front sensors it can no longer hold the leader role but
// may continue as a follower; the platoon adapts by electing a new
// leader and continues its mission at the same speed and capacity —
// a permanent performance degradation of the constituent with no
// degradation at the system-of-systems level.
//
// Simplification (documented in DESIGN.md): leadership re-election
// swaps roles logically without simulating the physical overtaking
// manoeuvre; follower spacing control then re-forms the convoy around
// the new order.
package platoon

import (
	"fmt"

	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

// Platoon coordinates a convoy of constituents on a shared path.
type Platoon struct {
	id      string
	members []*core.Constituent // convoy order; index 0 is the leader
	path    *geom.Path

	// Speed is the mission cruise speed.
	Speed float64
	// Gap is the desired inter-vehicle spacing in metres.
	Gap float64
	// GainP is the follower speed-control gain.
	GainP float64
	// LeadRange is the forward perception required to lead.
	LeadRange float64

	started   bool
	disbanded bool
	elections int
}

var _ sim.Entity = (*Platoon)(nil)

// New assembles a platoon. The member order is the initial convoy
// order; members[0] leads.
func New(id string, path *geom.Path, members ...*core.Constituent) (*Platoon, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("platoon: no members")
	}
	ms := make([]*core.Constituent, len(members))
	copy(ms, members)
	return &Platoon{
		id:        id,
		members:   ms,
		path:      path,
		Speed:     20,
		Gap:       15,
		GainP:     0.4,
		LeadRange: 100,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(id string, path *geom.Path, members ...*core.Constituent) *Platoon {
	p, err := New(id, path, members...)
	if err != nil {
		panic(err)
	}
	return p
}

// ID implements sim.Entity.
func (p *Platoon) ID() string { return p.id }

// Leader returns the current leader.
func (p *Platoon) Leader() *core.Constituent { return p.members[0] }

// Order returns the current convoy order (IDs).
func (p *Platoon) Order() []string {
	out := make([]string, len(p.members))
	for i, m := range p.members {
		out[i] = m.ID()
	}
	return out
}

// Elections returns how many leader re-elections have happened.
func (p *Platoon) Elections() int { return p.elections }

// MeanSpeed returns the average speed of the operational members —
// the system-level capacity measure of case (iv).
func (p *Platoon) MeanSpeed() float64 {
	sum, n := 0.0, 0
	for _, m := range p.members {
		if m.Operational() {
			sum += m.Body().Speed()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Step implements sim.Entity.
func (p *Platoon) Step(env *sim.Env) {
	if p.disbanded {
		return
	}
	if !p.started {
		p.start(env)
	}
	p.checkLeadership(env)
	if p.disbanded {
		return
	}
	p.control()
}

func (p *Platoon) start(env *sim.Env) {
	p.started = true
	for _, m := range p.members {
		if err := m.Dispatch(p.path, p.Speed); err != nil {
			env.Emit(sim.EventInfo, p.id, m.ID()+" could not join: "+err.Error())
		}
	}
	p.applyRoles()
	env.Emit(sim.EventInfo, p.id, "platoon formed, leader "+p.Leader().ID())
}

// applyRoles marks everyone but the leader as a follower (the leader
// extends their perception).
func (p *Platoon) applyRoles() {
	for i, m := range p.members {
		m.SetPlatoonFollower(i != 0)
	}
}

func (p *Platoon) checkLeadership(env *sim.Env) {
	leader := p.members[0]
	caps := leader.Capabilities()
	if leader.Operational() && caps.CanLead(p.LeadRange) {
		return
	}
	// Find the first operational member qualified to lead.
	for i := 1; i < len(p.members); i++ {
		c := p.members[i]
		if c.Operational() && c.Capabilities().CanLead(p.LeadRange) {
			p.members[0], p.members[i] = p.members[i], p.members[0]
			p.elections++
			p.applyRoles()
			env.EmitFields(sim.EventInfo, p.id,
				"leader handover: "+leader.ID()+" -> "+c.ID(),
				map[string]string{"from": leader.ID(), "to": c.ID()})
			// The ex-leader continues as a follower when it still can
			// (case iv); otherwise its own assessment handles it.
			return
		}
	}
	// Nobody can lead: the platoon cannot continue its mission.
	p.disbanded = true
	env.Emit(sim.EventMRCGlobal, p.id, "no member can lead: platoon-wide MRC")
	for _, m := range p.members {
		if m.Operational() {
			m.CommandMRM(env, "platoon disbanded: no leader available")
		}
	}
}

// control applies the convoy speed law: the leader cruises at the
// mission speed; each follower tracks the member ahead of it at the
// desired gap.
func (p *Platoon) control() {
	prev := -1 // index of the nearest operational member ahead
	for i, m := range p.members {
		if !m.Operational() {
			continue
		}
		if prev < 0 {
			m.SetCruiseSpeed(min(p.Speed, m.SpeedCap()))
			prev = i
			continue
		}
		ahead := p.members[prev]
		gap := p.progress(ahead) - p.progress(m)
		v := ahead.Body().Speed() + p.GainP*(gap-p.Gap)
		if v < 0 {
			v = 0
		}
		m.SetCruiseSpeed(min(v, m.SpeedCap()))
		prev = i
	}
}

func (p *Platoon) progress(c *core.Constituent) float64 {
	done, _ := c.Body().PathProgress()
	return done
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
