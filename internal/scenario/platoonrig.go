package scenario

import (
	"fmt"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/odd"
	"coopmrm/internal/platoon"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// PlatoonConfig parameterises the Sec. III-B case (iv) scenario: a
// platoon of trucks transporting goods on a public road.
type PlatoonConfig struct {
	Members int
	Seed    int64
	Faults  []fault.Fault
}

func (c PlatoonConfig) withDefaults() PlatoonConfig {
	if c.Members <= 0 {
		c.Members = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PlatoonRig is the assembled platoon scenario.
type PlatoonRig struct {
	Engine    *sim.Engine
	World     *world.World
	Platoon   *platoon.Platoon
	Members   []*core.Constituent
	Collector *metrics.Collector
	Injector  *fault.Injector

	fleet // the members
}

// Run executes the scenario for the horizon.
func (r *PlatoonRig) Run(horizon time.Duration) Result {
	return runFor(r.Engine, r.Collector, horizon)
}

// NewPlatoon builds the platoon rig on a long highway, cruising at the
// platoon's default 20 m/s.
func NewPlatoon(cfg PlatoonConfig) (*PlatoonRig, error) {
	cfg = cfg.withDefaults()
	const length = 200000.0
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-300, 0), geom.V(length, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-300, 4), geom.V(length, 7))})
	w.MustAddZone(world.Zone{ID: "rest", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(5000, 8), geom.V(5100, 30))})

	e := newEngine(cfg.Seed)
	rig := &PlatoonRig{Engine: e, World: w}
	roadODD := odd.DefaultRoadSpec()

	snap := &obstacleSnapshot{}
	for i := 0; i < cfg.Members; i++ {
		id := fmt.Sprintf("member%d", i+1)
		c := core.MustConstituent(core.Config{
			ID:        id,
			Spec:      vehicle.DefaultSpec(vehicle.KindTruck),
			Start:     geom.Pose{Pos: geom.V(float64(-25*i), 2)},
			World:     w,
			ODD:       &roadODD,
			Hierarchy: core.DefaultRoadHierarchy(),
			Goal:      "transport goods",
			Seed:      cfg.Seed,
			Obstacles: snap.obstaclesFor(id),
		})
		e.MustRegister(c)
		rig.Members = append(rig.Members, c)
		rig.cs = append(rig.cs, c)
	}
	snap.track(rig.cs)
	e.AddPreHook(snap.hook())
	path := geom.MustPath(geom.V(-300, 2), geom.V(length, 2)).SetName("mission")
	rig.Platoon = platoon.MustNew("platoon", path, rig.Members...)
	e.MustRegister(rig.Platoon)

	var err error
	if rig.Collector, rig.Injector, err = rig.instrument(e, w, nil, nil, cfg.Faults); err != nil {
		return nil, err
	}
	return rig, nil
}
