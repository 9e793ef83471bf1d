package coop

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/sim"
)

// AgreementSeeking is the J3216 class C policy: a failing vehicle
// requests help (a gap) and waits for consent before enacting the
// MRM; consenting neighbours slow down, making the MRM concerted
// (Definition 3). Without full consent by the deadline, the vehicle
// falls back to a conservative immediate MRC — the paper's
// "alternative plans must be considered".
//
// Global MRCs are possible through negotiated evacuations (the
// paper's mine-fire example): vehicles agree on an order and reach
// their safe positions one after another.
type AgreementSeeking struct {
	base *Base
	// Peers are the cooperating vehicles' IDs (excluding self).
	Peers []string
	// FallbackMRC is the conservative MRC used without agreement.
	FallbackMRC string
	// EvacMRC is the hierarchy entry used for negotiated evacuations.
	EvacMRC string

	// initiator state
	pendingReason string
	exchange      *Exchange
	granted       bool

	// helper state
	helpingFor string
	helpUntil  time.Duration

	// evacuation state
	evacuating bool
	evacOrder  []string
}

var _ sim.Entity = (*AgreementSeeking)(nil)

// A consenting helper holds its speed to helpSpeed (m/s) until the
// requester reports MRC, or for at most helpFor.
const (
	helpSpeed = 2
	helpFor   = 90 * time.Second
)

// NewAgreementSeeking wires the policy, installing the MRM gate that
// defers internally assessed MRMs until agreement (or timeout).
func NewAgreementSeeking(base *Base, peers []string) *AgreementSeeking {
	s := &AgreementSeeking{
		base:        base,
		Peers:       append([]string(nil), peers...),
		FallbackMRC: "in_place",
		EvacMRC:     "parking",
	}
	base.C().MRMGate = func(c *core.Constituent, reason string) bool {
		if s.granted {
			return true
		}
		if s.pendingReason == "" {
			s.pendingReason = reason
		}
		return false
	}
	return s
}

// ID implements sim.Entity.
func (s *AgreementSeeking) ID() string { return s.base.C().ID() + ":agreement" }

// DeclareEvacuation starts a negotiated global MRC (e.g. mine fire):
// the declaring vehicle broadcasts the evacuation; every participant
// independently derives the same deterministic order (sorted IDs) and
// proceeds when its predecessors have reached MRC.
func (s *AgreementSeeking) DeclareEvacuation(env *sim.Env) {
	if s.evacuating {
		return
	}
	s.startEvacuation(env)
	c := s.base.C()
	s.base.Net.Send(comm.NewMessage(c.ID(), comm.Broadcast, comm.TypeRequest,
		comm.TopicEvacuate, &comm.Body{Fields: map[string]string{
			comm.KeyOrder: strings.Join(s.evacOrder, ","),
		}}))
	env.Emit(sim.EventInfo, c.ID(), "declared evacuation; order "+strings.Join(s.evacOrder, ","))
}

func (s *AgreementSeeking) startEvacuation(env *sim.Env) {
	s.evacuating = true
	all := append([]string{s.base.C().ID()}, s.Peers...)
	sort.Strings(all)
	s.evacOrder = all
}

// Step implements sim.Entity.
func (s *AgreementSeeking) Step(env *sim.Env) {
	c := s.base.C()
	for _, m := range s.base.Net.Receive(c.ID()) {
		switch m.Topic {
		case comm.TopicStatus:
			s.base.HandleStatus(m)
			if s.helpingFor == m.From && s.base.PeerMode(m.From) == "mrc" {
				s.stopHelping()
			}
		case comm.TopicGapRequest:
			s.handleGapRequest(env, m)
		case comm.TopicGapResponse:
			if s.exchange != nil {
				s.exchange.Ack(m.From, m.Get(comm.KeyAck) == "true")
			}
		case comm.TopicEvacuate:
			if !s.evacuating {
				s.startEvacuation(env)
				env.Emit(sim.EventInfo, c.ID(), "joined evacuation")
			}
		}
	}
	if s.helpingFor != "" && env.Clock.Now() >= s.helpUntil {
		s.stopHelping()
	}
	s.stepInitiator(env)
	s.stepEvacuation(env)
	s.base.BeaconIfDue(env)
}

func (s *AgreementSeeking) handleGapRequest(env *sim.Env, m comm.Message) {
	c := s.base.C()
	ack := "false"
	if c.Operational() {
		ack = "true"
		s.helpingFor = m.From
		s.helpUntil = env.Clock.Now() + helpFor
		c.AssistSlowdown(helpSpeed)
		env.Emit(sim.EventInfo, c.ID(), "consented to gap for "+m.From)
	}
	s.base.Net.Send(comm.NewMessage(c.ID(), m.From, comm.TypeResponse,
		comm.TopicGapResponse, &comm.Body{Fields: map[string]string{comm.KeyAck: ack}}))
}

func (s *AgreementSeeking) stopHelping() {
	s.base.C().ReleaseAssist()
	s.helpingFor = ""
}

// stepInitiator drives the gap request through the shared
// ack/timeout/retry primitive: send, await consent, resend with
// backoff, and — after the deterministic give-up instant — fall back
// down the Fig. 1b hierarchy to the conservative MRC. A vehicle whose
// own radio is known-dead skips the doomed exchange entirely: without
// comms no consent can ever arrive, so the designed-in rule is the
// immediate conservative stop.
func (s *AgreementSeeking) stepInitiator(env *sim.Env) {
	c := s.base.C()
	if s.pendingReason == "" || s.granted {
		return
	}
	now := env.Clock.Now()
	if !c.CommUp() {
		s.granted = true
		s.exchange = nil
		c.TriggerMRMTo(env, s.FallbackMRC, s.pendingReason+" (no comms)")
		return
	}
	if s.exchange == nil {
		s.exchange = NewExchange()
		s.exchange.Begin(now, s.Peers)
		s.sendGapRequest(c.ID())
		env.Emit(sim.EventInfo, c.ID(), "requested gap: "+s.pendingReason)
		return
	}
	if s.exchange.Complete() {
		s.granted = true
		env.EmitFields(sim.EventMRMConcerted, c.ID(), "gap granted by all peers",
			map[string]string{"helpers": strings.Join(s.Peers, ",")})
		c.TriggerMRM(env, s.pendingReason+" (agreed)")
		return
	}
	switch s.exchange.Poll(now) {
	case OutcomeResend:
		s.sendGapRequest(c.ID())
		env.EmitFields(sim.EventInfo, c.ID(),
			fmt.Sprintf("gap request retry (attempt %d)", s.exchange.Attempt()),
			map[string]string{"outstanding": strings.Join(s.exchange.Outstanding(), ",")})
	case OutcomeExpired:
		s.granted = true
		c.TriggerMRMTo(env, s.FallbackMRC, s.pendingReason+" (no agreement)")
	}
}

// sendGapRequest broadcasts the gap request for the pending reason.
func (s *AgreementSeeking) sendGapRequest(from string) {
	s.base.Net.Send(comm.NewMessage(from, comm.Broadcast, comm.TypeRequest,
		comm.TopicGapRequest, &comm.Body{Fields: map[string]string{comm.KeyReason: s.pendingReason}}))
}

func (s *AgreementSeeking) stepEvacuation(env *sim.Env) {
	c := s.base.C()
	if !s.evacuating || !c.Operational() {
		return
	}
	// Proceed when all predecessors in the agreed order are in MRC.
	for _, id := range s.evacOrder {
		if id == c.ID() {
			c.TriggerMRMTo(env, s.EvacMRC, "negotiated evacuation")
			return
		}
		if s.base.PeerMode(id) != "mrc" {
			return // a predecessor has not reached MRC yet
		}
	}
}
