package scenario

import (
	"fmt"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/odd"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// HighwayConfig parameterises the freeway scenario used by the
// individual-AV experiments (Fig. 1) and the cooperative road
// examples (intent-sharing, agreement-seeking shoulder stops).
type HighwayConfig struct {
	Length float64 // road length in metres
	NCars  int
	// EgoIndex selects which car is the failure subject (-1 = middle).
	EgoIndex int
	Policy   PolicyKind // Baseline, StatusSharing, IntentSharing, AgreementSeeking
	Seed     int64
	Faults   []fault.Fault
	Speed    float64 // cruise speed
	// Loss is the V2X message loss probability (the A4 ablation knob).
	Loss float64
}

func (c HighwayConfig) withDefaults() HighwayConfig {
	if c.Length <= 0 {
		c.Length = 12000
	}
	if c.NCars <= 0 {
		c.NCars = 5
	}
	if c.EgoIndex < 0 || c.EgoIndex >= c.NCars {
		c.EgoIndex = c.NCars / 2
	}
	if c.Policy == 0 {
		c.Policy = PolicyBaseline
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Speed <= 0 {
		c.Speed = 25
	}
	return c
}

// HighwayRig is the assembled freeway scenario.
type HighwayRig struct {
	Engine    *sim.Engine
	World     *world.World
	Net       *comm.Network
	Cars      []*core.Constituent
	Hauls     []*agent.HaulAgent
	Ego       *core.Constituent
	Collector *metrics.Collector
	Injector  *fault.Injector
}

// Run executes the scenario for the horizon.
func (r *HighwayRig) Run(horizon time.Duration) Result {
	return runFor(r.Engine, r.Collector, horizon)
}

// Progress returns the total path distance covered by all cars — the
// traffic-throughput measure.
func (r *HighwayRig) Progress() float64 {
	sum := 0.0
	for _, c := range r.Cars {
		done, _ := c.Body().PathProgress()
		sum += done
	}
	return sum
}

// PerceptionFault returns a fault that degrades the ego's whole suite
// so its best effective range becomes aboutRange metres.
func (r *HighwayRig) PerceptionFault(at time.Duration, aboutRange float64, permanent bool) fault.Fault {
	nominal := r.Ego.Body().Spec().SensorRange
	sev := 1 - aboutRange/nominal
	if sev < 0 {
		sev = 0.01
	}
	if sev > 1 {
		sev = 1
	}
	return fault.Fault{
		ID: "ego-perception", Target: r.Ego.ID(), Kind: fault.KindSensor,
		Severity: sev, Permanent: permanent, At: at,
	}
}

// NewHighway builds the freeway rig: one lane with a continuous
// shoulder and rest stops every ~3 km, cars cruising in a loose
// string with the ego in the middle.
func NewHighway(cfg HighwayConfig) (*HighwayRig, error) {
	cfg = cfg.withDefaults()
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-200, 0), geom.V(cfg.Length, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-200, 4), geom.V(cfg.Length, 7))})
	for k := 1; float64(k)*3000 < cfg.Length; k++ {
		x := float64(k) * 3000
		w.MustAddZone(world.Zone{
			ID:   fmt.Sprintf("rest%d", k),
			Kind: world.ZoneParking,
			Area: geom.NewRect(geom.V(x, 8), geom.V(x+60, 30)),
		})
	}
	g := w.Graph()
	g.AddNode("entry", geom.V(0, 2))
	g.AddNode("exit", geom.V(cfg.Length, 2))
	g.MustConnect("entry", "exit")

	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, MaxTime: 24 * time.Hour, Seed: cfg.Seed})
	net := comm.NewNetwork(comm.NetConfig{Latency: 50 * time.Millisecond, LossProb: cfg.Loss},
		sim.NewRNG(cfg.Seed))

	rig := &HighwayRig{Engine: e, World: w, Net: net}
	e.AddPreHook(net.Hook())

	snap := &obstacleSnapshot{}
	roadODD := odd.DefaultRoadSpec()
	for i := 0; i < cfg.NCars; i++ {
		id := fmt.Sprintf("car%d", i+1)
		net.MustRegister(id)
		c := core.MustConstituent(core.Config{
			ID:        id,
			Spec:      vehicle.DefaultSpec(vehicle.KindCar),
			Start:     geom.Pose{Pos: geom.V(float64((cfg.NCars-1-i)*60), 2)},
			World:     w,
			Net:       net,
			ODD:       &roadODD,
			Hierarchy: core.DefaultRoadHierarchy(),
			Goal:      "reach destination",
			Seed:      cfg.Seed,
			Obstacles: snap.obstaclesFor(id),
		})
		e.MustRegister(c)
		rig.Cars = append(rig.Cars, c)
	}
	rig.Ego = rig.Cars[cfg.EgoIndex]
	snap.track(rig.Cars)
	e.AddPreHook(snap.hook())

	for _, c := range rig.Cars {
		c := c
		h := agent.New(agent.Config{
			C:               c,
			Graph:           g,
			Loop:            []string{"exit"},
			DepositNodes:    map[string]bool{"exit": true},
			UnitsPerDeposit: 1,
			Speed:           cfg.Speed,
			Neighbors: func() func() []sensor.Target {
				var buf []sensor.Target // per-closure scratch, reused every tick
				return func() []sensor.Target {
					buf = buf[:0]
					for _, o := range rig.Cars {
						if o != c {
							buf = append(buf, sensor.Target{ID: o.ID(), Pos: o.Body().Position()})
						}
					}
					return buf
				}
			}(),
		})
		e.MustRegister(h)
		rig.Hauls = append(rig.Hauls, h)
	}

	period := time.Second
	newBase := func(i int) *coop.Base {
		b := coop.NewBase(rig.Hauls[i], net, g, period)
		b.World = w
		return b
	}
	switch cfg.Policy {
	case PolicyBaseline:
	case PolicyStatusSharing:
		for i := range rig.Cars {
			e.MustRegister(coop.NewStatusSharing(newBase(i)))
		}
	case PolicyIntentSharing:
		for i := range rig.Cars {
			e.MustRegister(coop.NewIntentSharing(newBase(i)))
		}
	case PolicyAgreementSeeking:
		ids := make([]string, 0, len(rig.Cars))
		for _, c := range rig.Cars {
			ids = append(ids, c.ID())
		}
		for i, c := range rig.Cars {
			peers := make([]string, 0, len(ids)-1)
			for _, id := range ids {
				if id != c.ID() {
					peers = append(peers, id)
				}
			}
			p := coop.NewAgreementSeeking(newBase(i), peers)
			p.FallbackMRC = "in_lane"
			p.EvacMRC = "rest_stop"
			e.MustRegister(p)
		}
	default:
		return nil, fmt.Errorf("scenario: unsupported highway policy %v", cfg.Policy)
	}

	probes := make([]metrics.Probe, 0, len(rig.Cars))
	for _, c := range rig.Cars {
		probes = append(probes, probeFor(c, w))
	}
	rig.Collector = metrics.NewCollector(probes...)
	rig.Collector.SetInterventionCounter(func() int {
		n := 0
		for _, c := range rig.Cars {
			n += c.Interventions()
		}
		return n
	})
	e.AddPostHook(rig.Collector.Hook())

	rig.Injector = fault.NewInjector(nil)
	for _, c := range rig.Cars {
		rig.Injector.RegisterHandler(c.ID(), c)
	}
	if err := rig.Injector.Schedule(cfg.Faults...); err != nil {
		return nil, err
	}
	e.AddPreHook(rig.Injector.Hook())
	return rig, nil
}
