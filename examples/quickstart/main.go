// Quickstart: the MRM/MRC lifecycle of a single automated vehicle.
//
// A car cruises on a highway; at t=30s its perception fails. The ADS
// assesses the loss (Definition 4's tactical-adaptation question),
// triggers a minimal risk manoeuvre, selects the best feasible MRC
// from the hierarchy, and reaches a stable stopped state. A user
// intervention then recovers it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A highway world: a lane, a continuous shoulder, and a rest stop.
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-100, 0), geom.V(10000, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-100, 4), geom.V(10000, 7))})
	w.MustAddZone(world.Zone{ID: "rest_area", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(3000, 8), geom.V(3060, 30))})

	// The constituent: a car with the road ODD and the road MRC
	// hierarchy (rest stop > shoulder > in-lane stop > emergency stop).
	roadODD := odd.DefaultRoadSpec()
	car, err := core.NewConstituent(core.Config{
		ID:        "ego",
		Spec:      vehicle.DefaultSpec(vehicle.KindCar),
		Start:     geom.Pose{Pos: geom.V(0, 2)},
		World:     w,
		ODD:       &roadODD,
		Hierarchy: core.DefaultRoadHierarchy(),
		Goal:      "drive to the city",
	})
	if err != nil {
		return err
	}

	engine := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	if err := engine.Register(car); err != nil {
		return err
	}

	// Schedule the failure: the whole sensor suite degrades to ~15 m
	// at t=30s — outside the road ODD's 20 m minimum, but enough for
	// the shoulder MRM.
	injector := fault.NewInjector(nil)
	injector.RegisterHandler("ego", car)
	if err := injector.Schedule(fault.Fault{
		ID: "perception", Target: "ego", Kind: fault.KindSensor,
		Severity: 0.9, Permanent: true, At: 30 * time.Second,
	}); err != nil {
		return err
	}
	engine.AddPreHook(injector.Hook())

	// Drive.
	if err := car.Dispatch(geom.MustPath(geom.V(0, 2), geom.V(10000, 2)), 30); err != nil {
		return err
	}
	fmt.Printf("t=%4.0fs  mode=%-8s  goal=%q\n", 0.0, car.Mode(), car.Goal())

	for i := 0; i < 12; i++ {
		engine.RunFor(10 * time.Second)
		fmt.Printf("t=%4.0fs  mode=%-8s  goal=%-16q  pos=%5.0fm  speed=%4.1fm/s\n",
			engine.Env().Clock.Now().Seconds(), car.Mode(), car.Goal(),
			car.Body().Position().X, car.Body().Speed())
		if car.InMRC() {
			break
		}
	}

	fmt.Printf("\nreached MRC %q (%s) — residual stop risk %.2f\n",
		car.CurrentMRC().ID, car.MRMReason(),
		w.StopRiskAt(car.Body().Position()))

	// Per Definitions 1 and 2, recovery from MRC needs intervention.
	car.Recover(engine.Env())
	fmt.Printf("after user recovery: mode=%s goal=%q interventions=%d\n",
		car.Mode(), car.Goal(), car.Interventions())

	fmt.Println("\nevent log:")
	fmt.Print(engine.Env().Log.Summary())
	return nil
}
