package coop

import (
	"coopmrm/internal/comm"
	"coopmrm/internal/sim"
)

// Authority is the directing entity of the prescriptive class (J3216
// class D): a road operator, mine control room, or a larger machine
// with right of way. It issues temporary prescriptive orders: reroute,
// local MRC for one vehicle, or global MRC for everyone (the paper's
// flooded-road example).
type Authority struct {
	id  string
	net *comm.Network
}

var _ sim.Entity = (*Authority)(nil)

// NewAuthority returns a directing entity registered on the network.
func NewAuthority(id string, net *comm.Network) *Authority {
	return &Authority{id: id, net: net}
}

// ID implements sim.Entity.
func (a *Authority) ID() string { return a.id }

// Step implements sim.Entity: drain the inbox. The authority's orders
// come from the scenario, not from the beacons it hears; it stays a
// registered endpoint, so broadcasts still count it as a recipient,
// and draining keeps its inbox from growing.
func (a *Authority) Step(env *sim.Env) { a.net.Receive(a.id) }

// CommandMRC orders one vehicle into the named MRC ("" lets the
// vehicle select). A local MRC in Table I terms.
func (a *Authority) CommandMRC(env *sim.Env, target, mrcID, reason string) {
	a.net.Send(comm.NewMessage(a.id, target, comm.TypeCommand, comm.TopicCommandMRC,
		&comm.Body{Fields: map[string]string{comm.KeyMRC: mrcID, comm.KeyReason: reason}}))
	env.EmitFields(sim.EventMRCLocal, a.id, "commanded "+target+" to MRC "+mrcID,
		map[string]string{"target": target, "mrc": mrcID, "reason": reason})
}

// CommandAllMRC orders every vehicle into the named MRC — the global
// MRC of the prescriptive class. Ordering everyone into a positional
// MRC (e.g. a joint drive to parking) is a concerted MRM in the
// paper's terms.
func (a *Authority) CommandAllMRC(env *sim.Env, mrcID, reason string) {
	a.net.Send(comm.NewMessage(a.id, comm.Broadcast, comm.TypeCommand, comm.TopicCommandMRC,
		&comm.Body{Fields: map[string]string{comm.KeyMRC: mrcID, comm.KeyReason: reason}}))
	env.EmitFields(sim.EventMRCGlobal, a.id, "commanded ALL to MRC "+mrcID,
		map[string]string{"mrc": mrcID, "reason": reason})
	if mrcID != "" && mrcID != "in_place" && mrcID != "emergency" && mrcID != "in_lane" {
		env.Emit(sim.EventMRMConcerted, a.id, "prescribed concerted MRM: joint drive to "+mrcID)
	}
}

// CommandAvoid orders one vehicle to reroute around a node.
func (a *Authority) CommandAvoid(env *sim.Env, target, node, reason string) {
	a.net.Send(comm.NewMessage(a.id, target, comm.TypeCommand, comm.TopicCommandRoute,
		&comm.Body{Fields: map[string]string{comm.KeyAvoid: node, comm.KeyReason: reason}}))
	env.Emit(sim.EventInfo, a.id, "ordered "+target+" to avoid "+node)
}

// Prescriptive is the vehicle-side policy of the class: it behaves
// like status-sharing but additionally obeys authority commands. A
// vehicle unable to comply with a positional order goes to its own
// MRC instead (handled inside TriggerMRMTo).
type Prescriptive struct {
	base *Base
}

var _ sim.Entity = (*Prescriptive)(nil)

// NewPrescriptive wires the vehicle-side policy.
func NewPrescriptive(base *Base) *Prescriptive {
	return &Prescriptive{base: base}
}

// ID implements sim.Entity.
func (p *Prescriptive) ID() string { return p.base.C().ID() + ":prescriptive" }

// Base exposes the shared plumbing.
func (p *Prescriptive) Base() *Base { return p.base }

// Step implements sim.Entity.
func (p *Prescriptive) Step(env *sim.Env) {
	c := p.base.C()
	for _, m := range p.base.Net.Receive(c.ID()) {
		switch m.Topic {
		case comm.TopicStatus:
			p.base.HandleStatus(m)
		case comm.TopicCommandMRC:
			reason := "prescriptive order: " + m.Get(comm.KeyReason)
			if mrc := m.Get(comm.KeyMRC); mrc != "" {
				c.TriggerMRMTo(env, mrc, reason)
			} else {
				c.CommandMRM(env, reason)
			}
		case comm.TopicCommandRoute:
			if node := m.Get(comm.KeyAvoid); node != "" {
				p.base.Haul.Avoid(node)
			}
		}
	}
	p.base.BeaconIfDue(env)
}
