package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/traj"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// reinitDigest runs c alone on its own engine through a faulted
// script — an ODD exit that starts a positional MRM, then a
// propulsion loss that forces a switch down the hierarchy — and
// renders the event log, the final pose and the mode.
func reinitDigest(t *testing.T, c *Constituent, w *world.World) string {
	t.Helper()
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, MaxTime: 30 * time.Minute, Seed: 5})
	e.MustRegister(c)
	if err := c.Dispatch(geom.MustPath(c.Body().Position(), geom.V(900, 2)), 20); err != nil {
		t.Fatal(err)
	}
	e.RunFor(2 * time.Second)
	w.Weather = world.Weather{Condition: world.Snow, TemperatureC: -2}
	e.RunFor(2 * time.Second)
	c.ApplyFault(fault.Fault{ID: "engine", Target: c.ID(), Kind: fault.KindPropulsion,
		Severity: 1, Permanent: true})
	e.RunFor(40 * time.Second)
	if e.Env().Log.Count(sim.EventMRMStarted) == 0 {
		t.Fatal("script started no MRM — the differential has no power")
	}
	var b strings.Builder
	if err := e.Env().Log.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "pose=%+v mode=%v", c.Body().Pose(), c.Mode())
	return b.String()
}

// Constituent.Reinit is the warm-rig path: a pooled quarry re-adopts
// each constituent shell for the next seed instead of building a new
// one. A shell that ran under newRig's config and is then Reinit to
// config B must be indistinguishable from NewConstituent(B), and stay
// so when Reinit to B a second time (which reuses what the first
// Reinit built itself). B comes with and without caller-provided
// Suite, Hierarchy, ODD and Planner.
func TestReinitMatchesFresh(t *testing.T) {
	cases := map[string]func(w *world.World) Config{
		"defaults": func(w *world.World) Config {
			return Config{ID: "car7", Spec: vehicle.DefaultSpec(vehicle.KindCar),
				Start: geom.Pose{Pos: geom.V(150, 2)}, World: w, Goal: "commute", Seed: 9}
		},
		"caller-provided": func(w *world.World) Config {
			roadODD := odd.DefaultRoadSpec()
			planner := traj.DefaultConfig()
			planner.Samples = 5
			planner.LateralMax = 1.5
			return Config{ID: "car7", Spec: vehicle.DefaultSpec(vehicle.KindCar),
				Start: geom.Pose{Pos: geom.V(150, 2)}, World: w, Goal: "commute", Seed: 9,
				Suite: sensor.NewSuite(
					sensor.Sensor{Name: "lidar", NominalRange: 90, FrontFacing: true},
					sensor.Sensor{Name: "ultrasonic", NominalRange: 15},
				),
				ODD:       &roadODD,
				Hierarchy: DefaultRoadHierarchy(),
				Planner:   &planner,
			}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			w := roadWorld()
			want := reinitDigest(t, MustConstituent(mk(w)), w)

			e, c, w := newRig(t)
			if err := c.Dispatch(geom.MustPath(geom.V(100, 2), geom.V(800, 2)), 20); err != nil {
				t.Fatal(err)
			}
			e.RunFor(3 * time.Second)
			c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
				Severity: 1, Permanent: true})
			w.Weather = world.Weather{Condition: world.HeavyRain, TemperatureC: 1}
			e.RunFor(20 * time.Second)

			for round := 1; round <= 2; round++ {
				w := roadWorld()
				if err := c.Reinit(mk(w)); err != nil {
					t.Fatal(err)
				}
				if got := reinitDigest(t, c, w); got != want {
					t.Fatalf("Reinit #%d diverged from NewConstituent (%d vs %d bytes)", round, len(got), len(want))
				}
			}
		})
	}
}

// A caller-provided suite belongs to the caller: a later Reinit that
// leaves Suite nil builds a suite of its own and must not reset the
// caller's in place.
func TestReinitLeavesCallerSuiteAlone(t *testing.T) {
	_, c, w := newRig(t)
	own := c.Suite()
	s := sensor.StandardSuite(80)
	if err := c.Reinit(Config{ID: "truck1", World: w, Suite: s}); err != nil {
		t.Fatal(err)
	}
	c.ApplyFault(fault.Fault{ID: "haze", Target: "truck1", Kind: fault.KindSensor,
		Severity: 0.5, Permanent: true})
	s.SetWeatherFactor(0.5)
	want := s.EffectiveRange()

	if err := c.Reinit(Config{ID: "truck1", World: w}); err != nil {
		t.Fatal(err)
	}
	if c.Suite() == s {
		t.Fatal("Reinit without a Suite kept the caller's suite")
	}
	if c.Suite() == own {
		t.Error("Reinit reused a self-built suite across a caller-provided one")
	}
	if got := s.EffectiveRange(); got != want {
		t.Errorf("caller's suite range changed from %v to %v by Reinit", want, got)
	}
	if got := c.Suite().EffectiveRange(); got != vehicle.DefaultSpec(vehicle.KindTruck).SensorRange {
		t.Errorf("self-built suite range = %v, want the spec's nominal range", got)
	}
}
