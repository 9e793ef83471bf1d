package core

import (
	"fmt"
	"time"

	"coopmrm/internal/sim"
	"coopmrm/internal/traj"
)

// ConcertedMRM is an MRM jointly performed by several AVs to reduce
// the risk during the transitional manoeuvre (Definition 3): one
// initiator executes the MRM proper while helpers adapt (slow down /
// hold back) until the initiator reaches its MRC. A concerted MRM
// must result in MRC for at least one involved constituent — the
// initiator — which Completed() guarantees by construction and the
// test suite checks as a property.
type ConcertedMRM struct {
	initiator *Constituent
	helpers   []*Constituent
	// AssistSpeed is the speed bound helpers adopt while assisting.
	AssistSpeed float64
	// Timeout bounds how long helpers assist without the initiator
	// reaching MRC; afterwards they are released and the episode is
	// marked failed (default 5 minutes, 0 disables). Definition 3's
	// invariant applies to *completed* episodes; a failed episode is
	// explicitly not a concerted MRM.
	Timeout time.Duration
	reason  string

	started   bool
	startedAt time.Duration
	completed bool
	failed    bool
}

var _ sim.Entity = (*ConcertedMRM)(nil)

// NewConcertedMRM builds an episode. The helper list may be empty
// (degenerating to an ordinary MRM).
func NewConcertedMRM(initiator *Constituent, helpers []*Constituent, reason string) *ConcertedMRM {
	hs := make([]*Constituent, len(helpers))
	copy(hs, helpers)
	return &ConcertedMRM{
		initiator:   initiator,
		helpers:     hs,
		AssistSpeed: 2.0,
		Timeout:     5 * time.Minute,
		reason:      reason,
	}
}

// ID implements sim.Entity.
func (e *ConcertedMRM) ID() string { return "concerted:" + e.initiator.ID() }

// Completed reports whether the initiator has reached MRC and the
// helpers have been released.
func (e *ConcertedMRM) Completed() bool { return e.completed }

// Start triggers the initiator's MRM and puts helpers into assist.
func (e *ConcertedMRM) Start(env *sim.Env) {
	if e.started {
		return
	}
	e.started = true
	names := ""
	for i, h := range e.helpers {
		if i > 0 {
			names += ","
		}
		names += h.ID()
	}
	e.startedAt = env.Clock.Now()

	// Joint trajectory selection (Definition 3): the initiator's MRM
	// candidates and each helper's hold profiles are picked together to
	// minimise the fleet-wide transition risk — including the pairwise
	// interaction between the chosen trajectories — instead of each
	// vehicle choosing greedily.
	fields := map[string]string{"helpers": names, "reason": e.reason}
	if m, zone, cands, ok := e.initiator.MRMCandidates(); ok {
		sets := make([][]traj.Candidate, 0, 1+len(e.helpers))
		sets = append(sets, cands)
		holds := []float64{0.5 * e.AssistSpeed, e.AssistSpeed, 2 * e.AssistSpeed}
		for _, h := range e.helpers {
			sets = append(sets, h.HoldCandidates(holds))
		}
		sel, fleetRisk := e.initiator.Planner().SelectJoint(sets)
		if sel[0] >= 0 && cands[sel[0]].Risk <= traj.RiskCeiling {
			for i, h := range e.helpers {
				if k := sel[i+1]; k >= 0 {
					h.AssistSlowdown(sets[i+1][k].Cruise)
				} else {
					h.AssistSlowdown(e.AssistSpeed)
				}
			}
			fields["fleet_risk"] = fmt.Sprintf("%.3f", fleetRisk)
			env.EmitFields(sim.EventMRMConcerted, e.initiator.ID(),
				fmt.Sprintf("concerted MRM with %d helper(s), fleet transition risk %.3f",
					len(e.helpers), fleetRisk), fields)
			e.initiator.TriggerMRMPlanned(env, "concerted: "+e.reason, m, zone, cands[sel[0]])
			return
		}
	}
	// No joint plan under the ceiling (or nothing positional feasible):
	// scripted assist + ordinary MRM trigger.
	env.EmitFields(sim.EventMRMConcerted, e.initiator.ID(),
		fmt.Sprintf("concerted MRM with %d helper(s)", len(e.helpers)), fields)
	for _, h := range e.helpers {
		h.AssistSlowdown(e.AssistSpeed)
	}
	e.initiator.TriggerMRM(env, "concerted: "+e.reason)
}

// Step implements sim.Entity: once the initiator reaches MRC, release
// helpers and mark the episode complete. The paper's invariant — the
// episode results in MRC for at least one constituent — holds because
// completion is defined by the initiator's MRC.
func (e *ConcertedMRM) Step(env *sim.Env) {
	if !e.started || e.completed || e.failed {
		return
	}
	if e.initiator.InMRC() {
		e.release()
		e.completed = true
		env.Emit(sim.EventMRMConcerted, e.initiator.ID(), "concerted MRM completed: initiator in MRC")
		return
	}
	if e.Timeout > 0 && env.Clock.Now()-e.startedAt >= e.Timeout {
		e.release()
		e.failed = true
		env.Emit(sim.EventMRMConcerted, e.initiator.ID(),
			"concerted MRM failed: initiator did not reach MRC within the timeout; helpers released")
	}
}

func (e *ConcertedMRM) release() {
	for _, h := range e.helpers {
		h.ReleaseAssist()
	}
}
