package coop

import (
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

// IntentSharing is the J3216 class B policy: everything status-
// sharing does, plus announcing the vehicle's own planned MRM (the
// selected MRC and intended stop location) the moment it starts, so
// neighbours can adapt *during* the transition instead of after the
// fact — the paper's freeway example of broadcasting "reaching MRC
// 500 m ahead on the shoulder".
type IntentSharing struct {
	base *Base

	reactingTo    string
	releaseAt     time.Duration
	pendingIntent *intentAnnouncement
}

type intentAnnouncement struct {
	mrcID string
	stop  geom.Vec2
	node  string
}

var _ sim.Entity = (*IntentSharing)(nil)

// The reaction to an announced MRM: a vehicle within reactDistance
// (m) of the announced stop, and still heading towards it, holds its
// speed to reactSpeed (m/s) for reactFor or until the announcer
// reports MRC.
const (
	reactDistance = 400
	reactSpeed    = 3
	reactFor      = 30 * time.Second
)

// NewIntentSharing wires the policy, hooking the constituent's MRM
// start to the intent broadcast.
func NewIntentSharing(base *Base) *IntentSharing {
	s := &IntentSharing{base: base}
	c := base.C()
	c.OnMRMStarted = func(cc *core.Constituent, m core.MRC, reason string) {
		// Queue the announcement; it is sent on the next policy step
		// (the hook has no env and the network timestamps on send).
		var stop geom.Vec2
		switch m.Stop {
		case core.StopInPlace, core.StopEmergency:
			stop = cc.Body().Position().Add(
				cc.Body().Pose().Forward().Scale(cc.Body().StoppingDistance()))
		default:
			// The hook fires after MRM planning: the path end is the
			// actual intended stop point.
			if p := cc.Body().Path(); p != nil {
				stop = p.End()
			} else if z := cc.TargetZone(); z.ID != "" {
				stop = z.Center()
			} else {
				stop = cc.Body().Position()
			}
		}
		node := ""
		if base.Graph != nil {
			if n, ok := base.Graph.NearestNode(stop); ok {
				node = n
			}
		}
		s.pendingIntent = &intentAnnouncement{mrcID: m.ID, stop: stop, node: node}
	}
	return s
}

// ID implements sim.Entity.
func (s *IntentSharing) ID() string { return s.base.C().ID() + ":intent_sharing" }

// Base exposes the shared plumbing.
func (s *IntentSharing) Base() *Base { return s.base }

// Reacting reports whether the vehicle is currently adapting to a
// peer's announced MRM.
func (s *IntentSharing) Reacting() bool { return s.reactingTo != "" }

// Step implements sim.Entity.
func (s *IntentSharing) Step(env *sim.Env) {
	c := s.base.C()
	for _, m := range s.base.Net.Receive(c.ID()) {
		switch m.Topic {
		case comm.TopicStatus:
			s.base.HandleStatus(m)
			// An MRC confirmation from the vehicle we react to ends
			// the reaction early.
			if s.reactingTo == m.From && m.Mode() == "mrc" {
				s.stopReacting()
			}
		case comm.TopicMRMIntent:
			s.handleIntent(env, m)
		}
	}
	if s.pendingIntent != nil {
		s.broadcastIntent(env)
	}
	if s.reactingTo != "" && env.Clock.Now() >= s.releaseAt {
		s.stopReacting()
	}
	s.base.BeaconIfDue(env)
}

func (s *IntentSharing) broadcastIntent(env *sim.Env) {
	c := s.base.C()
	in := s.pendingIntent
	s.pendingIntent = nil
	s.base.Net.Send(comm.NewMessage(c.ID(), comm.Broadcast, comm.TypeIntent, comm.TopicMRMIntent,
		&comm.Body{Pos: comm.WirePos(in.stop), HasPos: true, Node: in.node,
			Fields: map[string]string{comm.KeyMRC: in.mrcID}}))
	env.Emit(sim.EventInfo, c.ID(), "announced MRM intent to "+in.mrcID)
}

func (s *IntentSharing) handleIntent(env *sim.Env, m comm.Message) {
	c := s.base.C()
	if !c.Operational() {
		return
	}
	// Proactively avoid the announced stop node.
	if node := m.Node(); node != "" {
		s.base.Haul.Avoid(node)
	}
	stop, ok := m.Pos()
	if !ok {
		return
	}
	if c.Body().Position().Dist(stop) > reactDistance {
		return
	}
	// Only vehicles that will still encounter the manoeuvre adapt;
	// traffic already past the announced stop continues.
	if stop.Sub(c.Body().Position()).Dot(c.Body().Pose().Forward()) < 0 {
		return
	}
	s.reactingTo = m.From
	s.releaseAt = env.Clock.Now() + reactFor
	c.AssistSlowdown(reactSpeed)
	env.Emit(sim.EventInfo, c.ID(), "slowing for announced MRM of "+m.From)
}

func (s *IntentSharing) stopReacting() {
	s.base.C().ReleaseAssist()
	s.reactingTo = ""
}
