package scenario

import (
	"fmt"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/collab"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sensor"
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

	// allBuf caches the diggers+trucks concatenation for the per-tick
	// neighbor closures (see all).
	allBuf []*core.Constituent

	// Warm-rig lifecycle state: the configuration wire() replays on
	// Reset, the world baseline taken right after chassis
	// construction, the parked constituent shells a Reset re-adopts by
	// ID, and the pool key a Release files the rig under (empty for
	// unpooled rigs).
	cfg     QuarryConfig
	wsnap   world.Snapshot
	prev    map[string]*core.Constituent
	poolKey string

	// prevCollector is the parked collector a Reset reuses when the
	// replayed fleet matches (see the reuse site in wire()); idsBuf is
	// scratch for that fleet check.
	prevCollector *metrics.Collector
	idsBuf        []string
}

// All returns every constituent (diggers then trucks).
func (r *QuarryRig) All() []*core.Constituent {
	out := make([]*core.Constituent, 0, len(r.Diggers)+len(r.Trucks))
	out = append(out, r.Diggers...)
	out = append(out, r.Trucks...)
	return out
}

// all is the cached, shared counterpart of All for per-tick internal
// callers (the neighbor closures): it rebuilds only when the fleet
// size changed and must not be mutated or exposed.
func (r *QuarryRig) all() []*core.Constituent {
	if len(r.allBuf) != len(r.Diggers)+len(r.Trucks) {
		r.allBuf = append(append(r.allBuf[:0], r.Diggers...), r.Trucks...)
	}
	return r.allBuf
}

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

	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, MaxTime: 24 * time.Hour, Seed: cfg.Seed})
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
// path cache when no blocking diverged, the zone index, event-log and
// heap backing arrays), constituent shells are re-adopted by ID with
// their planners reseeded in place, and wire() replays the exact
// per-seed wiring fresh construction runs. A reset rig's output is
// byte-identical to a fresh rig's at the same seed — the warm-rig
// differential tests hold tables, bundles and checkpoints to that.
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
	r.allBuf = r.allBuf[:0]
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
			r.Model.MustAddConstituent(id, "truck", "digger")
			r.Groups[id] = fmt.Sprintf("pair%d", p+1)
		}
	}

	// Haul agents for trucks (all policies but orchestrated use them;
	// orchestrated drives via TMS tasks instead).
	if cfg.Policy != PolicyOrchestrated {
		for _, c := range r.Trucks {
			c := c
			h := agent.New(agent.Config{
				C:               c,
				Graph:           g,
				Loop:            []string{"dep", "load"},
				DepositNodes:    map[string]bool{"dep": true},
				UnitsPerDeposit: 1,
				Speed:           8,
				ServiceNodes:    map[string]bool{"load": true},
				ServiceTime:     3 * time.Second,
				ServiceGate:     operationalDigger,
				Neighbors:       r.neighborsOf(c),
				World:           w,
				Patience:        cfg.Patience,
			})
			e.MustRegister(h)
			r.Hauls = append(r.Hauls, h)
		}
	}

	// Planner obstacle snapshot: filled each tick before the entity
	// steps.
	snap.track(r.All())
	e.AddPreHook(snap.hook())

	if err := r.wirePolicy(cfg); err != nil {
		return err
	}

	// Metrics. The probes close over constituent and body pointers the
	// warm path re-adopts in place, so a parked collector whose probe
	// IDs match the fleet (in order) reinitialises without rebuilding
	// its probes or latch storage; any mismatch falls back to fresh
	// construction.
	if pc := r.prevCollector; pc != nil {
		r.idsBuf = pc.ProbeIDs(r.idsBuf[:0])
		match := len(r.idsBuf) == len(r.all())
		if match {
			for i, c := range r.all() {
				if r.idsBuf[i] != c.ID() {
					match = false
					break
				}
			}
		}
		if match {
			r.Collector, r.prevCollector = pc, nil
			r.Collector.Reinit()
		}
	}
	if r.Collector == nil {
		probes := make([]metrics.Probe, 0, len(r.all()))
		for _, c := range r.all() {
			probes = append(probes, probeFor(c, w))
		}
		r.Collector = metrics.NewCollector(probes...)
	}
	r.Collector.SetInterventionCounter(func() int {
		n := 0
		for _, c := range r.All() {
			n += c.Interventions()
		}
		return n
	})
	e.AddPostHook(r.Collector.Hook())

	// Fault injection.
	logFault := func(event string, f fault.Fault) {
		kind := sim.EventFaultInjected
		if event == "clear" {
			kind = sim.EventFaultCleared
		}
		e.Env().Log.Append(sim.Event{
			Time: e.Env().Clock.Now(), Tick: e.Env().Clock.Tick(),
			Kind: kind, Subject: f.Target, Detail: f.Kind.String() + "/" + f.ID,
		})
	}
	r.Injector = fault.NewInjector(logFault)
	for _, c := range r.all() {
		r.Injector.RegisterHandler(c.ID(), c)
	}
	if err := r.Injector.Schedule(cfg.Faults...); err != nil {
		return err
	}
	e.AddPreHook(r.Injector.Hook())
	return nil
}

// neighborsOf returns the detection targets for one constituent: the
// positions of every other constituent. The closure owns a scratch
// slice (and iterates the cached constituent list) so the per-tick
// detection pass allocates nothing in steady state; callers must not
// retain the returned slice across calls.
func (r *QuarryRig) neighborsOf(self *core.Constituent) func() []sensor.Target {
	var buf []sensor.Target
	return func() []sensor.Target {
		buf = buf[:0]
		for _, o := range r.all() {
			if o != self {
				buf = append(buf, sensor.Target{ID: o.ID(), Pos: o.Body().Position()})
			}
		}
		return buf
	}
}

func (r *QuarryRig) addPolicy(p sim.Entity) {
	r.Engine.MustRegister(p)
	r.Policies = append(r.Policies, p)
}

func (r *QuarryRig) wirePolicy(cfg QuarryConfig) error {
	g := r.World.Graph()
	period := cfg.BeaconPeriod
	newBase := func(h *agent.HaulAgent) *coop.Base {
		b := coop.NewBase(h, r.Net, g, period)
		b.World = r.World
		return b
	}
	switch cfg.Policy {
	case PolicyBaseline:
		// No interaction at all.
	case PolicyStatusSharing:
		for i, c := range r.Trucks {
			_ = c
			r.addPolicy(coop.NewStatusSharing(newBase(r.Hauls[i])))
		}
	case PolicyIntentSharing:
		for i := range r.Trucks {
			r.addPolicy(coop.NewIntentSharing(newBase(r.Hauls[i])))
		}
	case PolicyAgreementSeeking:
		ids := make([]string, 0, len(r.Trucks))
		for _, c := range r.Trucks {
			ids = append(ids, c.ID())
		}
		for i, c := range r.Trucks {
			peers := make([]string, 0, len(ids)-1)
			for _, id := range ids {
				if id != c.ID() {
					peers = append(peers, id)
				}
			}
			r.addPolicy(coop.NewAgreementSeeking(newBase(r.Hauls[i]), peers))
		}
	case PolicyPrescriptive:
		r.Net.MustRegister("authority")
		r.Authority = coop.NewAuthority("authority", r.Net)
		r.Engine.MustRegister(r.Authority)
		for i := range r.Trucks {
			r.addPolicy(coop.NewPrescriptive(newBase(r.Hauls[i])))
		}
	case PolicyCoordinated:
		for _, d := range r.Diggers {
			dh := agent.New(agent.Config{C: d, Graph: g})
			r.Engine.MustRegister(dh)
			r.addPolicy(collab.NewCoordinated(newBase(dh), r.Model))
		}
		for i := range r.Trucks {
			r.addPolicy(collab.NewCoordinated(newBase(r.Hauls[i]), r.Model))
		}
	case PolicyChoreographed:
		board := collab.NewCheckInBoard()
		ids := make([]string, 0, len(r.Trucks))
		for _, c := range r.Trucks {
			ids = append(ids, c.ID())
		}
		for i, c := range r.Trucks {
			watch := make([]string, 0, len(ids)-1)
			for _, id := range ids {
				if id != c.ID() {
					watch = append(watch, id)
				}
			}
			p := collab.NewChoreographed(r.Hauls[i], board, watch)
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
		roles := make(map[string]string)
		for _, d := range r.Diggers {
			roles[d.ID()] = "digger"
		}
		for _, c := range r.Trucks {
			roles[c.ID()] = "truck"
		}
		r.Net.MustRegister("tms")
		r.Director = collab.NewDirector("tms", r.Net, r.Board, r.Model, roles)
		r.Director.Granularity = cfg.Granularity
		r.Director.Groups = r.Groups
		r.Director.Concerted = cfg.Concerted
		r.Engine.MustRegister(r.Director)
		for _, c := range r.All() {
			o := collab.NewOrchestrated(c, r.Net, g, "tms", 10)
			o.Monitor = agent.NewObstacleMonitor(c, r.neighborsOf(c), r.World)
			o.World = r.World
			r.addPolicy(o)
		}
	default:
		return fmt.Errorf("scenario: unsupported quarry policy %v", cfg.Policy)
	}
	return nil
}
