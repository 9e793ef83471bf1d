package collab

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/tms"
	"coopmrm/internal/world"
)

// The class's designed-in constants. parkMRC is the hierarchy entry
// of a concerted global MRC and of every local MRC the TMS or a
// coordinated member orders; haltMRC is the immediate global stop.
// The director's heartbeat and the members' status beacons go out
// every beaconTicks ticks. The director presumes a member lost after
// memberTimeout of beacon silence, and a member goes to MRC on its own
// after directorTimeout of heartbeat silence.
const (
	parkMRC         = "parking"
	haltMRC         = "in_place"
	beaconTicks     = 10
	memberTimeout   = 15 * time.Second
	directorTimeout = 20 * time.Second
)

// periodic fires on its first poll and then every beaconTicks ticks.
type periodic struct {
	last  int64
	fired bool
}

func (p *periodic) due(tick int64) bool {
	if p.fired && tick-p.last < beaconTicks {
		return false
	}
	p.fired, p.last = true, tick
	return true
}

// Director is the directing entity of the orchestrated class — a TMS
// controlling the whole collaborative system: it assigns tasks from
// the board, reroutes survivors around members in MRC (local MRC),
// and on a scope escalation stops everyone, either immediately or via
// a concerted drive-to-parking (global MRC).
type Director struct {
	id    string
	net   *comm.Network
	board *tms.Board
	model *core.DependencyModel
	// Granularity widens scope decisions per Fig. 2; Groups feeds the
	// per-group level.
	Granularity core.Granularity
	Groups      map[string]string
	// Concerted selects the global-MRC style: true commands a
	// drive to parking, false an immediate halt in place.
	Concerted bool

	roster       []member // the model's constituents, sorted by ID
	heartbeat    periodic
	globalIssued bool
}

// member is the director's record of one constituent: the role it
// provides and what its last status beacon said.
type member struct {
	id, role   string
	mode, node string
	pos        geom.Vec2
	hasPos     bool
	lastSeen   time.Duration
	seen       bool
	failed     bool
	commanded  bool
}

var _ sim.Entity = (*Director)(nil)

// NewDirector returns a TMS for the given board and dependency model.
// Its members are the model's constituents, walked in ID order, and a
// member's task role is the role the model says it provides.
func NewDirector(id string, net *comm.Network, board *tms.Board, model *core.DependencyModel) *Director {
	ids := model.Constituents()
	slices.Sort(ids)
	roster := make([]member, len(ids))
	for i, m := range ids {
		role, _ := model.Role(m)
		roster[i] = member{id: m, role: role}
	}
	return &Director{
		id:          id,
		net:         net,
		board:       board,
		model:       model,
		Granularity: core.GranularityConstituent,
		roster:      roster,
	}
}

// ID implements sim.Entity.
func (d *Director) ID() string { return d.id }

// GlobalIssued reports whether the director has declared a global
// MRC.
func (d *Director) GlobalIssued() bool { return d.globalIssued }

// find returns the record of a constituent, nil for a sender outside
// the model.
func (d *Director) find(id string) *member {
	i, ok := slices.BinarySearchFunc(d.roster, id, func(m member, id string) int {
		return strings.Compare(m.id, id)
	})
	if !ok {
		return nil
	}
	return &d.roster[i]
}

// Step implements sim.Entity.
func (d *Director) Step(env *sim.Env) {
	for _, msg := range d.net.Receive(d.id) {
		switch msg.Topic {
		case comm.TopicStatus:
			m := d.find(msg.From)
			if m == nil {
				continue
			}
			m.mode, m.node = msg.Mode(), msg.Node()
			m.pos, m.hasPos = msg.Pos()
			m.lastSeen, m.seen = env.Clock.Now(), true
			if m.mode == "mrc" && !m.failed {
				d.handleLoss(env, m)
			}
		case comm.TopicTaskDone:
			if _, err := d.board.Complete(msg.Get(comm.KeyTask)); err == nil {
				env.EmitFields(sim.EventTaskDone, d.id,
					msg.From+" completed "+msg.Get(comm.KeyTask),
					map[string]string{"task": msg.Get(comm.KeyTask), "by": msg.From})
			}
		}
	}
	// The director's liveness beacon; members that stop hearing it go
	// to MRC unilaterally (Table I, orchestrated).
	if d.heartbeat.due(env.Clock.Tick()) {
		d.net.Send(comm.NewMessage(d.id, comm.Broadcast, comm.TypeHeartbeat, "tms.heartbeat", nil))
	}
	d.checkLiveness(env)
	if !d.globalIssued {
		d.assignTasks(env)
	}
}

// checkLiveness presumes members lost after memberTimeout of beacon
// silence — whether their radio died or they stopped entirely, their
// work must be reassigned and the scope re-resolved.
func (d *Director) checkLiveness(env *sim.Env) {
	now := env.Clock.Now()
	for i := range d.roster {
		m := &d.roster[i]
		if m.failed || !m.seen || now-m.lastSeen <= memberTimeout {
			continue
		}
		env.EmitFields(sim.EventInfo, d.id,
			"member "+m.id+" silent beyond timeout: presumed lost",
			map[string]string{"member": m.id})
		d.handleLoss(env, m)
	}
}

func (d *Director) assignTasks(env *sim.Env) {
	for i := range d.roster {
		m := &d.roster[i]
		if m.failed || m.commanded || (m.mode != "nominal" && m.mode != "degraded") {
			continue // lost, ordered to MRC, or not known operational
		}
		if len(d.board.AssignedTo(m.id)) > 0 {
			continue
		}
		t, ok := d.board.NextFor(m.role)
		if !ok {
			continue
		}
		if err := d.board.Assign(t.ID, m.id); err != nil {
			continue
		}
		d.net.Send(comm.NewMessage(d.id, m.id, comm.TypeTask, comm.TopicTaskAssign,
			&comm.Body{Fields: map[string]string{
				comm.KeyTask: t.ID,
				"from":       t.From,
				"to":         t.To,
				"units":      strconv.FormatFloat(t.Units, 'f', 2, 64),
			}}))
		env.EmitFields(sim.EventTaskAssigned, d.id, "assigned "+t.ID+" to "+m.id,
			map[string]string{"task": t.ID, "to": m.id})
	}
}

func (d *Director) handleLoss(env *sim.Env, lost *member) {
	lost.failed = true
	// Free the lost member's work and route survivors around it.
	d.board.ReassignFrom(lost.id)
	if lost.node != "" {
		d.net.Send(comm.NewMessage(d.id, comm.Broadcast, comm.TypeCommand,
			comm.TopicCommandRoute, &comm.Body{Pos: lost.pos, HasPos: lost.hasPos,
				Fields: map[string]string{comm.KeyAvoid: lost.node}}))
		at := ","
		if lost.hasPos {
			// The position is on the wire grid, so two decimals
			// render it exactly.
			at = strconv.FormatFloat(lost.pos.X, 'f', 2, 64) + "," + strconv.FormatFloat(lost.pos.Y, 'f', 2, 64)
		}
		env.Emit(sim.EventInfo, d.id, "broadcast reroute around "+lost.id+" near "+lost.node+" at "+at)
	}
	var failedIDs []string
	for _, m := range d.roster {
		if m.failed {
			failedIDs = append(failedIDs, m.id)
		}
	}
	dec := core.ApplyGranularity(
		d.model.ResolveScope(failedIDs...),
		d.Granularity, d.Groups, d.model.Constituents())

	if dec.Level == core.ScopeGlobal {
		d.globalIssued = true
		aborted := d.board.AbortAll()
		style := haltMRC
		if d.Concerted {
			style = parkMRC
		}
		env.EmitFields(sim.EventMRCGlobal, d.id,
			"TMS global MRC ("+style+"), "+strconv.Itoa(aborted)+" tasks aborted",
			map[string]string{"mrc": style, "trigger": lost.id})
		if d.Concerted {
			env.Emit(sim.EventMRMConcerted, d.id,
				"concerted global MRM: joint drive to "+parkMRC)
		}
		for i := range d.roster {
			m := &d.roster[i]
			if !m.failed && !m.commanded {
				m.commanded = true
				d.net.Send(comm.NewMessage(d.id, m.id, comm.TypeCommand, comm.TopicCommandMRC,
					&comm.Body{Fields: map[string]string{comm.KeyMRC: style, comm.KeyReason: "TMS global MRC"}}))
			}
		}
		return
	}
	// Local: stop exactly the additionally affected members.
	for _, id := range dec.Affected {
		m := d.find(id)
		if m.failed || m.commanded {
			continue
		}
		m.commanded = true
		d.board.ReassignFrom(id)
		env.EmitFields(sim.EventMRCLocal, d.id, "TMS local MRC for "+id+": "+dec.Reasons[id],
			map[string]string{"target": id, "trigger": lost.id})
		d.net.Send(comm.NewMessage(d.id, id, comm.TypeCommand, comm.TopicCommandMRC,
			&comm.Body{Fields: map[string]string{comm.KeyMRC: parkMRC, comm.KeyReason: dec.Reasons[id]}}))
	}
}

// Orchestrated is the member-side policy: beacon status, execute
// assigned tasks, obey reroute and MRC commands. Members also go to
// MRC unilaterally on their own failures (their internal assessment
// keeps running), which the director observes via beacons.
type Orchestrated struct {
	c             *core.Constituent
	net           *comm.Network
	graph         *world.RouteGraph
	director      string
	beacon        periodic
	lastDirector  time.Duration
	heardDirector bool
	// Monitor, when set, applies the operational obstacle hold each
	// tick (wired by the scenario layer with the neighbour targets).
	Monitor *agent.ObstacleMonitor
	// World, when set, limits reroute commands to blockages inside
	// tunnel zones (see coop.BlockageAt).
	World *world.World

	avoid      map[string]bool
	avoidEdges map[[2]string]bool
	task       string
	legs       []string
	enRoute    bool
}

var _ sim.Entity = (*Orchestrated)(nil)

// NewOrchestrated wires the member-side policy reporting to the given
// director.
func NewOrchestrated(c *core.Constituent, net *comm.Network, graph *world.RouteGraph, director string) *Orchestrated {
	return &Orchestrated{
		c:          c,
		net:        net,
		graph:      graph,
		director:   director,
		avoid:      make(map[string]bool),
		avoidEdges: make(map[[2]string]bool),
	}
}

// ID implements sim.Entity.
func (p *Orchestrated) ID() string { return p.c.ID() + ":orchestrated" }

// Step implements sim.Entity.
func (p *Orchestrated) Step(env *sim.Env) {
	for _, m := range p.net.Receive(p.c.ID()) {
		if m.From == p.director {
			p.lastDirector = env.Clock.Now()
			p.heardDirector = true
		}
		switch m.Topic {
		case comm.TopicTaskAssign:
			p.task = m.Get(comm.KeyTask)
			p.legs = nil
			if from := m.Get("from"); from != "" {
				p.legs = append(p.legs, from)
			}
			if to := m.Get("to"); to != "" {
				p.legs = append(p.legs, to)
			}
			p.enRoute = false
		case comm.TopicCommandMRC:
			reason := "TMS order: " + m.Get(comm.KeyReason)
			if mrc := m.Get(comm.KeyMRC); mrc != "" {
				p.c.TriggerMRMTo(env, mrc, reason)
			} else {
				p.c.CommandMRM(env, reason)
			}
		case comm.TopicCommandRoute:
			p.handleReroute(m)
		}
	}
	if p.heardDirector && p.c.Operational() &&
		env.Clock.Now()-p.lastDirector > directorTimeout {
		// Table I: lost communication with the directing entity is a
		// unilateral MRC trigger for an orchestrated constituent.
		p.c.TriggerMRM(env, "lost communication with directing entity")
	}
	if p.c.Operational() {
		if p.Monitor != nil {
			p.Monitor.Apply(env)
		}
		p.drive(env)
	}
	if p.beacon.due(env.Clock.Tick()) {
		p.net.Send(coop.StatusBeacon(p.c, p.graph))
	}
}

// handleReroute avoids what the stopped vehicle at the reported
// position blocks (coop.BlockageAt), falling back to the named node
// when the order carries no position, and replans.
func (p *Orchestrated) handleReroute(m comm.Message) {
	p.enRoute = false
	pos, ok := m.Pos()
	if !ok {
		if node := m.Get(comm.KeyAvoid); node != "" {
			p.avoid[node] = true
		}
		return
	}
	blk := coop.BlockageAt(p.graph, p.World, pos)
	if e := blk.Edge; e[0] != "" {
		p.avoidEdges[e] = true
		p.avoidEdges[[2]string{e[1], e[0]}] = true
	}
	if blk.Node != "" {
		p.avoid[blk.Node] = true
	}
}

func (p *Orchestrated) drive(env *sim.Env) {
	if p.task == "" || len(p.legs) == 0 {
		return
	}
	if p.enRoute {
		if !p.c.Body().Arrived() {
			return
		}
		p.enRoute = false
		p.legs = p.legs[1:]
		if len(p.legs) == 0 {
			p.net.Send(comm.NewMessage(p.c.ID(), p.director, comm.TypeResponse, comm.TopicTaskDone,
				&comm.Body{Fields: map[string]string{comm.KeyTask: p.task}}))
			p.task = ""
			return
		}
	}
	path, err := agent.PlanLegPathWith(p.c, p.graph, p.legs[0],
		world.Avoidance{Nodes: p.avoid, Edges: p.avoidEdges})
	if err != nil {
		return // wait for a reroute or recovery
	}
	if err := p.c.Dispatch(path, p.c.SpeedCap()); err != nil {
		return
	}
	p.enRoute = true
}
