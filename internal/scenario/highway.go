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
	"coopmrm/internal/odd"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// HighwayConfig parameterises the freeway scenario used by the
// individual-AV experiments (Fig. 1) and the cooperative road
// examples (intent-sharing, agreement-seeking shoulder stops).
type HighwayConfig struct {
	NCars  int
	Policy PolicyKind // Baseline, StatusSharing, IntentSharing, AgreementSeeking
	Seed   int64
	Faults []fault.Fault
	// Loss is the V2X message loss probability (the A4 ablation knob).
	Loss float64
}

// Fixed freeway parameters.
const (
	highwayLength = 12000.0 // road length, metres
	highwaySpeed  = 25.0    // cruise speed, m/s
)

func (c HighwayConfig) withDefaults() HighwayConfig {
	if c.NCars <= 0 {
		c.NCars = 5
	}
	if c.Policy == 0 {
		c.Policy = PolicyBaseline
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HighwayRig is the assembled freeway scenario.
type HighwayRig struct {
	Net   *comm.Network
	Cars  []*core.Constituent
	Hauls []*agent.HaulAgent
	Ego   *core.Constituent // the failure subject: car1, the lead car

	Fleet // the cars
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
// string led by the ego.
func NewHighway(cfg HighwayConfig) (*HighwayRig, error) {
	cfg = cfg.withDefaults()
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-200, 0), geom.V(highwayLength, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-200, 4), geom.V(highwayLength, 7))})
	for k := 1; float64(k)*3000 < highwayLength; k++ {
		x := float64(k) * 3000
		w.MustAddZone(world.Zone{
			ID:   fmt.Sprintf("rest%d", k),
			Kind: world.ZoneParking,
			Area: geom.NewRect(geom.V(x, 8), geom.V(x+60, 30)),
		})
	}
	g := w.Graph()
	g.AddNode("entry", geom.V(0, 2))
	g.AddNode("exit", geom.V(highwayLength, 2))
	g.MustConnect("entry", "exit")

	net := comm.NewNetwork(comm.NetConfig{Latency: 50 * time.Millisecond, LossProb: cfg.Loss},
		sim.NewRNG(cfg.Seed))

	rig := &HighwayRig{Fleet: newFleet(w, cfg.Seed), Net: net}
	e := rig.Engine
	e.AddPreHook(net.Hook())

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
			Obstacles: rig.obstacles(id),
		})
		e.MustRegister(c)
		rig.Cars = append(rig.Cars, c)
		rig.add(c)
	}
	rig.Ego = rig.Cars[0]

	for _, c := range rig.Cars {
		h := agent.New(agent.Config{
			C:            c,
			Graph:        g,
			Loop:         []string{"exit"},
			DepositNodes: map[string]bool{"exit": true},
			Speed:        highwaySpeed,
			Neighbors:    rig.neighbours(c),
		})
		e.MustRegister(h)
		rig.Hauls = append(rig.Hauls, h)
	}

	switch cfg.Policy {
	case PolicyBaseline:
	case PolicyStatusSharing:
		for _, h := range rig.Hauls {
			e.MustRegister(coop.NewStatusSharing(newBase(h, net, w, time.Second)))
		}
	case PolicyIntentSharing:
		for _, h := range rig.Hauls {
			e.MustRegister(coop.NewIntentSharing(newBase(h, net, w, time.Second)))
		}
	case PolicyAgreementSeeking:
		for i, c := range rig.Cars {
			p := coop.NewAgreementSeeking(newBase(rig.Hauls[i], net, w, time.Second), peersOf(rig.Cars, c))
			p.FallbackMRC = "in_lane"
			p.EvacMRC = "rest_stop"
			e.MustRegister(p)
		}
	default:
		return nil, fmt.Errorf("scenario: unsupported highway policy %v", cfg.Policy)
	}

	if err := rig.instrument(nil, nil, cfg.Faults); err != nil {
		return nil, err
	}
	return rig, nil
}
