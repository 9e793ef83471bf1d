// Package agent provides the task-execution layer shared by the
// cooperation/collaboration policies: a haul agent that cycles a
// constituent through a loop of route-graph nodes, credits deliveries,
// plans around privately known blocked nodes, and applies
// operational-level obstacle holds when another constituent blocks
// its corridor.
package agent

import (
	"fmt"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// Config assembles a haul agent.
type Config struct {
	C     *core.Constituent
	Graph *world.RouteGraph
	// Loop is the node cycle to drive (e.g. load -> deposit -> ...).
	Loop []string
	// DepositNodes marks the loop nodes whose arrival counts as a
	// delivery of one unit.
	DepositNodes map[string]bool
	// Speed is the cruise speed for task legs.
	Speed float64
	// Neighbors returns candidate obstacles for the operational
	// obstacle hold (see ObstacleMonitor.Neighbors). Nil disables
	// holding.
	Neighbors func() []sensor.Target
	// ServiceNodes marks loop nodes where the vehicle must be
	// serviced (e.g. loaded by a digger) before departing.
	ServiceNodes map[string]bool
	// ServiceTime is how long servicing takes once available.
	ServiceTime time.Duration
	// ServiceGate, when set, must return true for servicing to start
	// (e.g. "an operational digger is present"). While false the
	// vehicle waits at the service node.
	ServiceGate func() bool
	// World, when set, enables pass-around: a hold against an obstacle
	// *outside* any tunnel zone is abandoned after Patience (the
	// vehicle manoeuvres around, which the 1-D road abstraction cannot
	// represent directly). Obstacles inside tunnel zones block
	// indefinitely — the narrow passages of the paper's mine examples.
	World *world.World
	// Patience overrides the obstacle monitor's wait before passing
	// around a non-tunnel obstacle (default 8 s).
	Patience time.Duration
}

// HaulAgent drives one constituent around its loop.
type HaulAgent struct {
	cfg        Config
	leg        int // index into Loop of the *current target*
	target     string
	avoid      map[string]bool
	avoidEdges map[[2]string]bool
	enRoute    bool
	stuck      bool
	delivered  float64
	legsDone   int

	inService    bool
	serviceSince time.Duration
	serviceReady bool

	monitor *ObstacleMonitor
}

var _ sim.Entity = (*HaulAgent)(nil)

// New returns a haul agent; the constituent starts idle and picks up
// the first leg on its first step.
func New(cfg Config) *HaulAgent {
	a := &HaulAgent{
		cfg:        cfg,
		avoid:      make(map[string]bool),
		avoidEdges: make(map[[2]string]bool),
	}
	if cfg.Neighbors != nil {
		a.monitor = NewObstacleMonitor(cfg.C, cfg.Neighbors, cfg.World)
		if cfg.Patience > 0 {
			a.monitor.Patience = cfg.Patience
		}
	}
	return a
}

// ID implements sim.Entity.
func (a *HaulAgent) ID() string { return a.cfg.C.ID() + ":agent" }

// Constituent returns the driven constituent.
func (a *HaulAgent) Constituent() *core.Constituent { return a.cfg.C }

// Delivered returns the delivered units so far.
func (a *HaulAgent) Delivered() float64 { return a.delivered }

// Avoid adds a node to the agent's private avoid set and replans the
// current leg if it is affected.
func (a *HaulAgent) Avoid(node string) {
	if a.avoid[node] {
		return
	}
	a.avoid[node] = true
	a.Replan()
}

// Unavoid removes a node from the avoid set.
func (a *HaulAgent) Unavoid(node string) { delete(a.avoid, node) }

// AvoidEdge adds an (undirected) edge to the private avoid set and
// replans — used when a stopped constituent blocks a road segment
// between two waypoints.
func (a *HaulAgent) AvoidEdge(x, y string) {
	if a.avoidEdges[[2]string{x, y}] {
		return
	}
	a.avoidEdges[[2]string{x, y}] = true
	a.avoidEdges[[2]string{y, x}] = true
	a.Replan()
}

// UnavoidEdge removes an edge from the avoid set.
func (a *HaulAgent) UnavoidEdge(x, y string) {
	delete(a.avoidEdges, [2]string{x, y})
	delete(a.avoidEdges, [2]string{y, x})
}

// AvoidedEdge reports whether the edge is privately avoided.
func (a *HaulAgent) AvoidedEdge(x, y string) bool {
	return a.avoidEdges[[2]string{x, y}]
}

// Avoided returns whether the agent privately avoids the node.
func (a *HaulAgent) Avoided(node string) bool { return a.avoid[node] }

// Replan drops the current leg plan so the next step replans with the
// updated avoid set.
func (a *HaulAgent) Replan() { a.enRoute = false }

// Step implements sim.Entity.
func (a *HaulAgent) Step(env *sim.Env) {
	c := a.cfg.C
	if !c.Operational() {
		return
	}
	if a.monitor != nil {
		a.monitor.Apply(env)
	}
	if a.enRoute {
		if c.Body().Arrived() {
			a.completeLeg(env)
		}
		return
	}
	// Replanning proceeds even while held for an obstacle: a new route
	// away from the blockage (with the heading realigned on dispatch)
	// is often exactly what releases the hold.
	if a.inService && !a.stepService(env) {
		return
	}
	a.startNextLeg(env)
}

// stepService advances waiting/being-serviced state; it returns true
// once the service is complete and the next leg may start.
func (a *HaulAgent) stepService(env *sim.Env) bool {
	now := env.Clock.Now()
	if !a.serviceReady {
		if a.cfg.ServiceGate != nil && !a.cfg.ServiceGate() {
			return false // wait for the servicer (e.g. a digger)
		}
		a.serviceReady = true
		a.serviceSince = now
	}
	if now < a.serviceSince+a.cfg.ServiceTime {
		return false
	}
	a.inService = false
	a.serviceReady = false
	return true
}

// InService reports whether the agent is waiting at or being handled
// at a service node.
func (a *HaulAgent) InService() bool { return a.inService }

func (a *HaulAgent) completeLeg(env *sim.Env) {
	a.enRoute = false
	a.legsDone++
	if a.cfg.DepositNodes[a.target] {
		a.delivered++
		env.EmitFields(sim.EventTaskDone, a.cfg.C.ID(),
			fmt.Sprintf("delivered at %s", a.target),
			map[string]string{"node": a.target})
	}
	if a.cfg.ServiceNodes[a.target] {
		a.inService = true
		a.serviceReady = false
	}
	a.leg = (a.leg + 1) % len(a.cfg.Loop)
}

func (a *HaulAgent) startNextLeg(env *sim.Env) {
	if len(a.cfg.Loop) == 0 {
		return
	}
	c := a.cfg.C
	a.target = a.cfg.Loop[a.leg]
	p, err := PlanLegPathWith(c, a.cfg.Graph, a.target,
		world.Avoidance{Nodes: a.avoid, Edges: a.avoidEdges})
	if err != nil {
		if !a.stuck {
			env.Emit(sim.EventInfo, c.ID(), "no route to "+a.target+": holding position")
		}
		a.stuck = true
		return
	}
	if err := c.Dispatch(p, a.cfg.Speed); err != nil {
		a.stuck = true
		return
	}
	a.stuck = false
	a.enRoute = true
}

// PlanLegPathWith plans a drivable path from the constituent's
// position to the target node, routing on the graph while honouring
// node and edge avoidance.
func PlanLegPathWith(c *core.Constituent, g *world.RouteGraph, target string, av world.Avoidance) (*geom.Path, error) {
	start, ok := g.NearestNode(c.Body().Position())
	if !ok {
		return nil, fmt.Errorf("agent: graph has no nodes")
	}
	route, err := g.PathBetweenWith(start, target, av)
	if err != nil {
		return nil, err
	}
	pos := c.Body().Position()
	routePts := route.Points()
	// Drop leading waypoints the vehicle is already past: when it sits
	// on the first leg (projects onto the segment with little lateral
	// offset), starting at route[0] would make it backtrack through
	// traffic. Waypoints of legs the vehicle is *not* on are kept —
	// they are genuine detour entries.
	for len(routePts) >= 2 {
		seg := geom.Segment{A: routePts[0], B: routePts[1]}
		cp, t := seg.ClosestPoint(pos)
		if t > 0 && cp.Dist(pos) < 10 {
			routePts = routePts[1:]
			continue
		}
		break
	}
	pts := append([]geom.Vec2{pos}, routePts...)
	p, err := geom.NewPath(pts...)
	if err != nil {
		return nil, err
	}
	return p.SetName("leg:" + target), nil
}
