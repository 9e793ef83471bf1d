package collab

import (
	"fmt"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/sim"
)

// Response is the designed-in reaction of a choreographed system to a
// missed check-in.
type Response int

// Designed responses.
const (
	// ResponseAlternateRoute switches survivors to the predetermined
	// alternate route (a designed-in local MRC handling).
	ResponseAlternateRoute Response = iota + 1
	// ResponseHalt stops every member immediately (a designed-in
	// global MRC).
	ResponseHalt
)

var responseNames = map[Response]string{
	ResponseAlternateRoute: "alternate_route",
	ResponseHalt:           "halt",
}

// String implements fmt.Stringer.
func (r Response) String() string {
	if s, ok := responseNames[r]; ok {
		return s
	}
	return fmt.Sprintf("response(%d)", int(r))
}

// Choreographed is the no-communication collaborative policy: each
// member knows the design (who must check in at the deposit, how
// often, and what to do when someone misses the deadline). The
// paper's example: if a truck does not check into the deposit within
// a period, a failure is assumed and all trucks take a predetermined
// alternate route — or halt, depending on the designed response.
type Choreographed struct {
	haul  *agent.HaulAgent
	board *CheckInBoard
	// Watch lists the member IDs whose check-ins this member
	// monitors (excluding itself).
	Watch []string
	// Deadline is the designed maximum interval between check-ins.
	Deadline time.Duration
	// Response is the designed reaction.
	Response Response
	// AlternateAvoid is the predetermined node dropped from routes in
	// alternate mode.
	AlternateAvoid string

	triggered     bool
	lastDelivered float64
}

var _ sim.Entity = (*Choreographed)(nil)

// NewChoreographed wires the policy: the member records its own
// deposit check-ins on the board and watches the others' deadlines.
func NewChoreographed(haul *agent.HaulAgent, board *CheckInBoard, watch []string) *Choreographed {
	return &Choreographed{
		haul:     haul,
		board:    board,
		Watch:    append([]string(nil), watch...),
		Deadline: 2 * time.Minute,
		Response: ResponseAlternateRoute,
	}
}

// ID implements sim.Entity.
func (p *Choreographed) ID() string { return p.haul.Constituent().ID() + ":choreographed" }

// Step implements sim.Entity.
func (p *Choreographed) Step(env *sim.Env) {
	now := env.Clock.Now()
	// Own deliveries are physical check-ins at the deposit gate.
	if d := p.haul.Delivered(); d > p.lastDelivered {
		p.lastDelivered = d
		p.board.Record(p.haul.Constituent().ID(), now)
	}
	if p.triggered {
		return
	}
	for _, id := range p.Watch {
		last, ok := p.board.Last(id)
		if !ok {
			last = 0 // design grants one full deadline from start
		}
		if now-last > p.Deadline {
			p.trigger(env, id)
			return
		}
	}
}

func (p *Choreographed) trigger(env *sim.Env, overdue string) {
	p.triggered = true
	c := p.haul.Constituent()
	switch p.Response {
	case ResponseHalt:
		env.EmitFields(sim.EventMRCGlobal, c.ID(),
			"designed response: "+overdue+" missed check-in, halting",
			map[string]string{"overdue": overdue})
		env.Emit(sim.EventMRMConcerted, c.ID(),
			"designed-in concerted response: joint halt")
		c.TriggerMRM(env, "designed response: missed check-in of "+overdue)
	default:
		env.EmitFields(sim.EventMRCLocal, c.ID(),
			"designed response: "+overdue+" missed check-in, alternate route",
			map[string]string{"overdue": overdue})
		if p.AlternateAvoid != "" {
			p.haul.Avoid(p.AlternateAvoid)
		}
	}
}
