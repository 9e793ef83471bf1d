package scenario

import (
	"fmt"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// HarbourConfig parameterises the Sec. III-C escalation scenario: an
// automated crane unloads containers; forklifts move them to storage.
// Rain plus falling temperature triggers MRC1 (local: crane halts,
// forklifts finish and park); a slipping forklift during MRM1
// triggers MRC2 (global: everything stops immediately).
type HarbourConfig struct {
	Forklifts int
	Seed      int64
	// TwoLevel enables the MRC1/MRC2 hierarchy; false makes every
	// trigger go straight to the global stop (the comparison arm of
	// experiment E5).
	TwoLevel bool
	// Weather is the scripted weather (rain onset etc.).
	Weather *world.WeatherSchedule
	Faults  []fault.Fault
}

func (c HarbourConfig) withDefaults() HarbourConfig {
	if c.Forklifts <= 0 {
		c.Forklifts = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HarbourRig is the assembled harbour scenario.
type HarbourRig struct {
	Crane      *core.Constituent
	Forklifts  []*core.Constituent
	Hauls      []*agent.HaulAgent
	Supervisor *HarbourSupervisor

	Fleet // crane then forklifts
}

// Delivered returns the containers stacked.
func (r *HarbourRig) Delivered() float64 {
	sum := 0.0
	for _, h := range r.Hauls {
		sum += h.Delivered()
	}
	return sum
}

// HarbourSupervisor implements the site's two-level MRC hierarchy
// from Sec. III-C. Level 0 is nominal. When the traction risk exceeds
// SlipLimit the supervisor aborts the common strategic goal with MRM1
// into MRC1 — a local MRC: the crane halts, forklifts finish the
// containers already unloaded and then park. If a forklift indicates
// slipping during MRM1, MRM2 into MRC2 follows — the global MRC: all
// machines stop immediately and set their loads down.
type HarbourSupervisor struct {
	crane     *core.Constituent
	forklifts []*core.Constituent
	hauls     []*agent.HaulAgent
	// SlipLimit triggers MRC1.
	SlipLimit float64
	// TwoLevel false makes the first trigger go straight to MRC2.
	TwoLevel bool

	world *world.World
	level int
}

var _ sim.Entity = (*HarbourSupervisor)(nil)

// ID implements sim.Entity.
func (s *HarbourSupervisor) ID() string { return "harbour-supervisor" }

// Level returns the current MRC level (0 nominal, 1 local, 2 global).
func (s *HarbourSupervisor) Level() int { return s.level }

// Step implements sim.Entity.
func (s *HarbourSupervisor) Step(env *sim.Env) {
	if s.level >= 2 {
		return
	}
	slip := s.world.Weather.SlipRisk()
	if s.level == 0 && slip > s.SlipLimit {
		if s.TwoLevel {
			s.declareLocal(env)
		} else {
			s.declareGlobal(env, "weather trigger with single-level policy")
		}
	}
	if s.level == 1 {
		// Park forklifts that have finished their in-flight work: the
		// crane is stopped, so a forklift waiting for service has
		// nothing left to do.
		for i, f := range s.forklifts {
			if f.Operational() && s.hauls[i].InService() {
				f.TriggerMRMTo(env, "parking", "MRC1: work exhausted, parking")
			}
		}
		// A slipping forklift escalates (Fig. 1b applied at system
		// level: MRM2 into MRC2).
		for _, f := range s.forklifts {
			if f.Body().BrakeFactor() < 0.9 {
				s.declareGlobal(env, f.ID()+" indicates slipping")
				return
			}
		}
	}
}

func (s *HarbourSupervisor) declareLocal(env *sim.Env) {
	s.level = 1
	env.EmitFields(sim.EventMRCLocal, s.ID(),
		"MRM1 -> MRC1: crane halts, forklifts finish and park",
		map[string]string{"level": "1"})
	s.crane.TriggerMRMTo(env, "in_place", "MRC1: traction risk")
}

func (s *HarbourSupervisor) declareGlobal(env *sim.Env, reason string) {
	s.level = 2
	env.EmitFields(sim.EventMRCGlobal, s.ID(),
		"MRM2 -> MRC2: immediate stop, loads set down ("+reason+")",
		map[string]string{"level": "2"})
	s.crane.TriggerMRMTo(env, "emergency", "MRC2: "+reason)
	for _, f := range s.forklifts {
		f.TriggerMRMTo(env, "emergency", "MRC2: "+reason)
	}
}

// NewHarbour builds the harbour rig.
func NewHarbour(cfg HarbourConfig) (*HarbourRig, error) {
	cfg = cfg.withDefaults()
	w := world.New()
	g := w.Graph()
	g.AddNode("quay", geom.V(0, 0))
	g.AddNode("storage", geom.V(120, 0))
	g.AddNode("park", geom.V(40, -80))
	g.MustConnect("quay", "storage")
	g.MustConnect("quay", "park")
	g.MustConnect("storage", "park")
	w.MustAddZone(world.Zone{ID: "unloading", Kind: world.ZoneUnloading,
		Area: geom.NewRect(geom.V(-20, -15), geom.V(20, 20))})
	w.MustAddZone(world.Zone{ID: "storage", Kind: world.ZoneStorage,
		Area: geom.NewRect(geom.V(100, -15), geom.V(140, 20))})
	w.MustAddZone(world.Zone{ID: "park", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(20, -100), geom.V(60, -60))})

	rig := &HarbourRig{Fleet: newFleet(w, cfg.Seed)}
	e := rig.Engine

	// A schedule passed to several rigs must replay from t=0 in each.
	if cfg.Weather != nil {
		cfg.Weather.Rewind()
	}

	// The machines themselves tolerate poor traction (heavy treads);
	// the *site's* risk decision belongs to the supervisor, whose
	// stricter SlipLimit triggers the MRC hierarchy of Sec. III-C.
	tolerantODD := odd.DefaultSiteSpec()
	tolerantODD.MaxSlipRisk = 0.75
	tolerantODD.MaxCondition = world.HeavyRain

	rig.Crane = core.MustConstituent(core.Config{
		ID:        "crane",
		Spec:      vehicle.DefaultSpec(vehicle.KindCrane),
		Start:     geom.Pose{Pos: geom.V(-5, 10)},
		World:     w,
		ODD:       &tolerantODD,
		Goal:      "unload ship",
		Seed:      cfg.Seed,
		Obstacles: rig.obstacles("crane"),
	})
	e.MustRegister(rig.Crane)
	rig.add(rig.Crane)

	craneWorks := func() bool { return rig.Crane.Operational() }
	for i := 0; i < cfg.Forklifts; i++ {
		id := fmt.Sprintf("forklift%d", i+1)
		f := core.MustConstituent(core.Config{
			ID:        id,
			Spec:      vehicle.DefaultSpec(vehicle.KindForklift),
			Start:     geom.Pose{Pos: geom.V(float64(-10*(i+1)), -5)},
			World:     w,
			ODD:       &tolerantODD,
			Goal:      "stack containers",
			Seed:      cfg.Seed,
			Obstacles: rig.obstacles(id),
		})
		e.MustRegister(f)
		rig.Forklifts = append(rig.Forklifts, f)
		rig.add(f)
		h := agent.New(agent.Config{
			C:            f,
			Graph:        g,
			Loop:         []string{"storage", "quay"},
			DepositNodes: map[string]bool{"storage": true},
			Speed:        5,
			ServiceNodes: map[string]bool{"quay": true},
			ServiceTime:  4 * time.Second,
			ServiceGate:  craneWorks,
			World:        w,
			Neighbors:    rig.neighbours(f),
		})
		e.MustRegister(h)
		rig.Hauls = append(rig.Hauls, h)
	}

	rig.Supervisor = &HarbourSupervisor{
		crane:     rig.Crane,
		forklifts: rig.Forklifts,
		hauls:     rig.Hauls,
		SlipLimit: 0.3,
		TwoLevel:  cfg.TwoLevel,
		world:     w,
	}
	e.MustRegister(rig.Supervisor)

	if cfg.Weather != nil {
		sched := cfg.Weather
		e.AddPreHook(func(env *sim.Env) {
			for _, ch := range sched.Apply(w, env.Clock.Now()) {
				env.Emit(sim.EventInfo, "weather",
					fmt.Sprintf("weather -> %v, %.1fC", ch.Condition, ch.TemperatureC))
			}
		})
	}

	if err := rig.instrument(nil, nil, cfg.Faults); err != nil {
		return nil, err
	}
	return rig, nil
}
