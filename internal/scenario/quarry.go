package scenario

import (
	"fmt"
	"slices"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/collab"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sim"
	"coopmrm/internal/tms"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// QuarryConfig parameterises the quarry scenario: Pairs digger/truck
// pairs collaborate to move material from the loading point to the
// deposit (the paper's Sec. III-A running example).
type QuarryConfig struct {
	Pairs         int
	TrucksPerPair int
	Policy        PolicyKind
	// Granularity applies to the orchestrated policy (Fig. 2 levels).
	Granularity core.Granularity
	// Concerted selects the orchestrated global-MRC style.
	Concerted bool
	Seed      int64
	// Faults is the injection schedule.
	Faults []fault.Fault
	// Tasks is the number of haul tasks on the TMS board
	// (orchestrated only); 0 means a generous default.
	Tasks int
	// BeaconPeriod is the status-beacon interval of the V2X policies
	// (default 1s) — the A2 ablation knob.
	BeaconPeriod time.Duration
	// Patience overrides the agents' pass-around patience (default
	// 8s) — the A3 ablation knob.
	Patience time.Duration
	// Net overrides the V2X channel model (default: 50 ms latency,
	// no loss, no chaos) — the E17 chaos knobs live here.
	Net *comm.NetConfig
}

func (c QuarryConfig) withDefaults() QuarryConfig {
	if c.Pairs <= 0 {
		c.Pairs = 2
	}
	if c.TrucksPerPair <= 0 {
		c.TrucksPerPair = 1
	}
	if c.Policy == 0 {
		c.Policy = PolicyCoordinated
	}
	if c.Granularity == 0 {
		c.Granularity = core.GranularityConstituent
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tasks <= 0 {
		c.Tasks = 200
	}
	if c.BeaconPeriod <= 0 {
		c.BeaconPeriod = time.Second
	}
	return c
}

// QuarryRig is the assembled quarry scenario.
type QuarryRig struct {
	Engine    *sim.Engine
	World     *world.World
	Net       *comm.Network
	Model     *core.DependencyModel
	Diggers   []*core.Constituent
	Trucks    []*core.Constituent
	Hauls     []*agent.HaulAgent // truck haul agents, same order as Trucks
	Groups    map[string]string  // constituent -> pair name
	Collector *metrics.Collector
	Injector  *fault.Injector
	Director  *collab.Director // orchestrated only
	Board     *tms.Board       // orchestrated only
	Authority *coop.Authority  // prescriptive only
	// Policies holds the per-constituent policy entities in
	// registration order (empty for the baseline), so experiments can
	// reach class-specific knobs (evacuations, designed responses).
	Policies []sim.Entity

	fleet // diggers then trucks

	// Warm-rig lifecycle state: the configuration wire() replays on
	// Reset, the world baseline taken right after chassis
	// construction, the parked constituent shells and collector a
	// Reset re-adopts, and the pool key a Release files the rig under
	// (empty for unpooled rigs).
	cfg           QuarryConfig
	wsnap         world.Snapshot
	prev          map[string]*core.Constituent
	prevCollector *metrics.Collector
	poolKey       string
}

// All returns every constituent (diggers then trucks).
func (r *QuarryRig) All() []*core.Constituent { return slices.Clone(r.cs) }

// Run executes the scenario for the horizon.
func (r *QuarryRig) Run(horizon time.Duration) Result {
	return runFor(r.Engine, r.Collector, horizon)
}

// Delivered returns the total units delivered by the trucks' haul
// agents plus the TMS board (orchestrated).
func (r *QuarryRig) Delivered() float64 {
	sum := 0.0
	for _, h := range r.Hauls {
		sum += h.Delivered()
	}
	if r.Board != nil {
		sum += r.Board.DoneUnits()
	}
	return sum
}

// NewQuarry builds the quarry rig: the seed-invariant chassis — world
// geometry, route graph, zone index, engine, network — then wire(),
// the per-seed wiring a warm Reset replays. Splitting the two is what
// makes fresh-vs-reset byte-identity hold by construction: every line
// that differs per seed lives in wire(), and both paths run it.
func NewQuarry(cfg QuarryConfig) (*QuarryRig, error) {
	cfg = cfg.withDefaults()
	w := world.New()
	g := w.Graph()
	g.AddNode("load", geom.V(0, 0))
	g.AddNode("mid", geom.V(150, 0))
	g.AddNode("dep", geom.V(300, 0))
	g.AddNode("alt", geom.V(150, 120))
	g.MustConnect("load", "mid")
	g.MustConnect("mid", "dep")
	g.MustConnect("load", "alt")
	g.MustConnect("alt", "dep")
	w.MustAddZone(world.Zone{ID: "loading", Kind: world.ZoneLoading,
		Area: geom.NewRect(geom.V(-15, -15), geom.V(15, 15))})
	w.MustAddZone(world.Zone{ID: "deposit", Kind: world.ZoneUnloading,
		Area: geom.NewRect(geom.V(285, -15), geom.V(315, 15))})
	w.MustAddZone(world.Zone{ID: "haulroad", Kind: world.ZoneTunnel,
		Area: geom.NewRect(geom.V(15, -6), geom.V(285, 6))})
	w.MustAddZone(world.Zone{ID: "pocket", Kind: world.ZonePocket,
		Area: geom.NewRect(geom.V(140, 8), geom.V(160, 18))})
	w.MustAddZone(world.Zone{ID: "park", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(-90, -90), geom.V(-30, -30))})

	e := newEngine(cfg.Seed)
	netCfg := comm.NetConfig{Latency: 50 * time.Millisecond}
	if cfg.Net != nil {
		if err := cfg.Net.Validate(); err != nil {
			return nil, err
		}
		netCfg = *cfg.Net
	}
	net := comm.NewNetwork(netCfg, sim.NewRNG(cfg.Seed))

	rig := &QuarryRig{Engine: e, World: w, Net: net, wsnap: w.Snapshot()}
	if err := rig.wire(cfg); err != nil {
		return nil, err
	}
	return rig, nil
}

// Reset returns the rig to its just-constructed state under a new
// seed, in O(mutable state) instead of O(world): the engine, network
// and world rewind in place (retaining the route graph, its memoized
// path cache, the zone index, event-log and heap backing arrays),
// constituent shells are re-adopted by ID with their planners
// reseeded in place, and wire() replays the exact per-seed wiring
// fresh construction runs. A reset rig's output is byte-identical to
// a fresh rig's at the same seed — the warm-rig differential tests
// hold tables, bundles and checkpoints to that.
func (r *QuarryRig) Reset(seed int64) error {
	cfg := r.cfg
	cfg.Seed = seed
	cfg = cfg.withDefaults()

	// Park the constituent shells for wire() to re-adopt by ID.
	if r.prev == nil {
		r.prev = make(map[string]*core.Constituent, len(r.Diggers)+len(r.Trucks))
	}
	for _, c := range r.Diggers {
		r.prev[c.ID()] = c
	}
	for _, c := range r.Trucks {
		r.prev[c.ID()] = c
	}

	r.Engine.Reset(cfg.Seed)
	r.Net.Reset(cfg.Seed)
	r.World.Restore(r.wsnap)

	clear(r.Diggers)
	r.Diggers = r.Diggers[:0]
	clear(r.Trucks)
	r.Trucks = r.Trucks[:0]
	clear(r.Hauls)
	r.Hauls = r.Hauls[:0]
	clear(r.Policies)
	r.Policies = r.Policies[:0]
	clear(r.cs)
	r.cs = r.cs[:0]
	r.prevCollector = r.Collector
	r.Model = nil
	r.Collector = nil
	r.Injector = nil
	r.Director = nil
	r.Board = nil
	r.Authority = nil

	return r.wire(cfg)
}

// constituent returns the parked shell for id reinitialised under cc
// when the rig holds one from a prior run, or a fresh constituent.
// Both paths run core.Constituent.Reinit, so a re-adopted shell is
// identical to a fresh one by construction.
func (r *QuarryRig) constituent(cc core.Config) *core.Constituent {
	if c := r.prev[cc.ID]; c != nil {
		delete(r.prev, cc.ID)
		if err := c.Reinit(cc); err != nil {
			panic(err)
		}
		return c
	}
	return core.MustConstituent(cc)
}

// wire performs every per-seed wiring step, in the exact order fresh
// construction always has: network pre-hook, constituent registration
// (network first, then engine — registration order drives broadcast
// fan-out and step order), haul agents, the planner obstacle
// snapshot, the policy layer, metrics, and fault injection. Reset
// replays it against rewound substrate.
func (r *QuarryRig) wire(cfg QuarryConfig) error {
	e, w, net := r.Engine, r.World, r.Net
	g := w.Graph()
	e.AddPreHook(net.Hook())

	r.cfg = cfg
	r.Model = core.NewDependencyModel()
	// The groups map empties in place; it is rebuilt below either way.
	if r.Groups == nil {
		r.Groups = make(map[string]string)
	} else {
		clear(r.Groups)
	}
	snap := &obstacleSnapshot{}

	// Diggers.
	operationalDigger := func() bool {
		for _, d := range r.Diggers {
			if d.Operational() {
				return true
			}
		}
		return false
	}
	for p := 0; p < cfg.Pairs; p++ {
		id := fmt.Sprintf("digger%d", p+1)
		net.MustRegister(id)
		d := r.constituent(core.Config{
			ID:        id,
			Spec:      vehicle.DefaultSpec(vehicle.KindDigger),
			Start:     geom.Pose{Pos: geom.V(5, float64(6*(p+1))), Heading: 0},
			World:     w,
			Net:       net,
			Goal:      "load trucks",
			Seed:      cfg.Seed,
			Obstacles: snap.obstaclesFor(id),
		})
		e.MustRegister(d)
		r.Diggers = append(r.Diggers, d)
		r.add(d)
		r.Model.MustAddConstituent(id, "digger", "truck")
		r.Groups[id] = fmt.Sprintf("pair%d", p+1)
	}
	// Trucks.
	for p := 0; p < cfg.Pairs; p++ {
		for k := 0; k < cfg.TrucksPerPair; k++ {
			id := fmt.Sprintf("truck%d_%d", p+1, k+1)
			net.MustRegister(id)
			c := r.constituent(core.Config{
				ID:        id,
				Spec:      vehicle.DefaultSpec(vehicle.KindTruck),
				Start:     geom.Pose{Pos: geom.V(float64(-14*(p*cfg.TrucksPerPair+k+1)), 0)},
				World:     w,
				Net:       net,
				Goal:      "haul material",
				Seed:      cfg.Seed,
				Obstacles: snap.obstaclesFor(id),
			})
			e.MustRegister(c)
			r.Trucks = append(r.Trucks, c)
			r.add(c)
			r.Model.MustAddConstituent(id, "truck", "digger")
			r.Groups[id] = fmt.Sprintf("pair%d", p+1)
		}
	}

	// Haul agents for trucks (all policies but orchestrated use them;
	// orchestrated drives via TMS tasks instead).
	if cfg.Policy != PolicyOrchestrated {
		for _, c := range r.Trucks {
			h := agent.New(agent.Config{
				C:            c,
				Graph:        g,
				Loop:         []string{"dep", "load"},
				DepositNodes: map[string]bool{"dep": true},
				Speed:        8,
				ServiceNodes: map[string]bool{"load": true},
				ServiceTime:  3 * time.Second,
				ServiceGate:  operationalDigger,
				Neighbors:    r.neighbours(c),
				World:        w,
				Patience:     cfg.Patience,
			})
			e.MustRegister(h)
			r.Hauls = append(r.Hauls, h)
		}
	}

	// Planner obstacle snapshot: filled each tick before the entity
	// steps.
	snap.track(r.cs)
	e.AddPreHook(snap.hook())

	if err := r.wirePolicy(cfg); err != nil {
		return err
	}

	// Metrics and faults; only the quarry logs fault injections and
	// clears.
	col, inj, err := r.instrument(e, w, r.prevCollector, r.logFault, cfg.Faults)
	r.prevCollector = nil
	if err != nil {
		return err
	}
	r.Collector, r.Injector = col, inj
	return nil
}

// logFault records an injection or clear in the event log.
func (r *QuarryRig) logFault(event string, f fault.Fault) {
	kind := sim.EventFaultInjected
	if event == "clear" {
		kind = sim.EventFaultCleared
	}
	env := r.Engine.Env()
	env.Log.Append(sim.Event{
		Time: env.Clock.Now(), Tick: env.Clock.Tick(),
		Kind: kind, Subject: f.Target, Detail: f.Kind.String() + "/" + f.ID,
	})
}

func (r *QuarryRig) addPolicy(p sim.Entity) {
	r.Engine.MustRegister(p)
	r.Policies = append(r.Policies, p)
}

func (r *QuarryRig) wirePolicy(cfg QuarryConfig) error {
	g := r.World.Graph()
	base := func(h *agent.HaulAgent) *coop.Base { return newBase(h, r.Net, r.World, cfg.BeaconPeriod) }
	switch cfg.Policy {
	case PolicyBaseline:
		// No interaction at all.
	case PolicyStatusSharing:
		for _, h := range r.Hauls {
			r.addPolicy(coop.NewStatusSharing(base(h)))
		}
	case PolicyIntentSharing:
		for _, h := range r.Hauls {
			r.addPolicy(coop.NewIntentSharing(base(h)))
		}
	case PolicyAgreementSeeking:
		for i, c := range r.Trucks {
			r.addPolicy(coop.NewAgreementSeeking(base(r.Hauls[i]), peersOf(r.Trucks, c)))
		}
	case PolicyPrescriptive:
		r.Net.MustRegister("authority")
		r.Authority = coop.NewAuthority("authority", r.Net)
		r.Engine.MustRegister(r.Authority)
		for _, h := range r.Hauls {
			r.addPolicy(coop.NewPrescriptive(base(h)))
		}
	case PolicyCoordinated:
		for _, d := range r.Diggers {
			dh := agent.New(agent.Config{C: d, Graph: g})
			r.Engine.MustRegister(dh)
			r.addPolicy(collab.NewCoordinated(base(dh), r.Model))
		}
		for _, h := range r.Hauls {
			r.addPolicy(collab.NewCoordinated(base(h), r.Model))
		}
	case PolicyChoreographed:
		board := collab.NewCheckInBoard()
		for i, c := range r.Trucks {
			p := collab.NewChoreographed(r.Hauls[i], board, peersOf(r.Trucks, c))
			p.Deadline = 3 * time.Minute
			p.Response = collab.ResponseAlternateRoute
			p.AlternateAvoid = "mid"
			r.addPolicy(p)
		}
	case PolicyOrchestrated:
		r.Board = tms.NewBoard()
		for i := 0; i < cfg.Tasks; i++ {
			r.Board.MustAdd(tms.Task{
				ID: fmt.Sprintf("haul-%03d", i), Kind: "haul",
				From: "load", To: "dep", Units: 1, RequiredRole: "truck",
			})
		}
		r.Net.MustRegister("tms")
		r.Director = collab.NewDirector("tms", r.Net, r.Board, r.Model)
		r.Director.Granularity = cfg.Granularity
		r.Director.Groups = r.Groups
		r.Director.Concerted = cfg.Concerted
		r.Engine.MustRegister(r.Director)
		for _, c := range r.cs {
			o := collab.NewOrchestrated(c, r.Net, g, "tms")
			o.Monitor = agent.NewObstacleMonitor(c, r.neighbours(c), r.World)
			o.World = r.World
			r.addPolicy(o)
		}
	default:
		return fmt.Errorf("scenario: unsupported quarry policy %v", cfg.Policy)
	}
	return nil
}
