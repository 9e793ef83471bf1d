package scenario

import (
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

func TestPolicyKindString(t *testing.T) {
	if PolicyBaseline.String() != "baseline" || PolicyOrchestrated.String() != "orchestrated" {
		t.Error("policy names wrong")
	}
	if PolicyKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
	if len(AllPolicies()) != 8 {
		t.Error("AllPolicies should list baseline + 7 classes")
	}
}

func TestQuarryAllPoliciesBuildAndRun(t *testing.T) {
	for _, p := range AllPolicies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			rig, err := NewQuarry(QuarryConfig{Pairs: 2, Policy: p, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			res := rig.Run(2 * time.Minute)
			if rig.Delivered() <= 0 {
				t.Errorf("%v delivered nothing in 2 minutes", p)
			}
			if res.Report.OperationalShare < 0.9 {
				t.Errorf("%v operational share = %v without faults", p, res.Report.OperationalShare)
			}
			if res.Report.Collisions != 0 {
				t.Errorf("%v had %d collisions without faults", p, res.Report.Collisions)
			}
		})
	}
}

func TestQuarryFaultSchedule(t *testing.T) {
	rig, err := NewQuarry(QuarryConfig{
		Pairs:  2,
		Policy: PolicyCoordinated,
		Faults: []fault.Fault{{
			ID: "d1", Target: "digger1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 30 * time.Second,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rig.Run(3 * time.Minute)
	if res.Log.Count(sim.EventFaultInjected) != 1 {
		t.Error("fault injection event missing")
	}
	if rig.Diggers[0].Operational() {
		t.Errorf("digger1 mode = %v after blinding fault", rig.Diggers[0].Mode())
	}
	// With a second digger, the system keeps delivering: local MRC.
	if rig.Delivered() < 2 {
		t.Errorf("delivered = %v, want continued productivity", rig.Delivered())
	}
	if !rig.Trucks[0].Operational() {
		t.Error("trucks should continue with the surviving digger")
	}
}

func TestQuarryDeterministic(t *testing.T) {
	run := func() float64 {
		rig, err := NewQuarry(QuarryConfig{Pairs: 2, Policy: PolicyStatusSharing, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rig.Run(90 * time.Second)
		return rig.Delivered()
	}
	if run() != run() {
		t.Error("same seed should reproduce the same deliveries")
	}
}

func TestHighwayRunsAndProgresses(t *testing.T) {
	rig, err := NewHighway(HighwayConfig{NCars: 5, Policy: PolicyBaseline})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(time.Minute)
	if rig.Progress() < 4000 {
		t.Errorf("progress = %v m after 1 min of 5 cars", rig.Progress())
	}
}

func TestHighwayEgoShoulderMRC(t *testing.T) {
	rig, err := NewHighway(HighwayConfig{NCars: 5, Policy: PolicyIntentSharing})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade ego perception to ~15 m: inside vehicle limits but
	// outside the road ODD minimum (20 m) => MRM; 15 m still clears
	// the shoulder MRC's 10 m requirement.
	f := rig.PerceptionFault(20*time.Second, 15, true)
	if err := rig.Injector.Schedule(f); err != nil {
		t.Fatal(err)
	}
	rig.Run(4 * time.Minute)
	if !rig.Ego.InMRC() {
		t.Fatalf("ego mode = %v", rig.Ego.Mode())
	}
	if got := rig.Ego.CurrentMRC().ID; got != "shoulder" {
		t.Errorf("ego MRC = %v, want shoulder", got)
	}
	// Stopped on the shoulder zone.
	if !rig.World.HasZoneKindAt(world.ZoneShoulder, rig.Ego.Body().Position()) {
		t.Errorf("ego stopped at %v, not on the shoulder", rig.Ego.Body().Position())
	}
}

func TestHarbourEscalation(t *testing.T) {
	weather := world.MustWeatherSchedule(
		world.WeatherChange{At: 60 * time.Second, Condition: world.Rain, TemperatureC: 2},
	)
	rig, err := NewHarbour(HarbourConfig{
		Forklifts: 3,
		TwoLevel:  true,
		Weather:   weather,
		Faults: []fault.Fault{{
			ID: "slip", Target: "forklift2", Kind: fault.KindBrake,
			Severity: 0.5, Permanent: true, At: 80 * time.Second,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(30 * time.Second)
	if rig.Supervisor.Level() != 0 {
		t.Fatalf("level = %d before rain", rig.Supervisor.Level())
	}
	if rig.Delivered() == 0 {
		t.Error("forklifts should stack containers before the rain")
	}
	rig.Run(40 * time.Second) // rain at 60s -> MRC1
	if rig.Supervisor.Level() != 1 {
		t.Fatalf("level = %d after cold rain, want 1", rig.Supervisor.Level())
	}
	if rig.Crane.Operational() {
		t.Error("crane should halt at MRC1")
	}
	rig.Run(3 * time.Minute) // slip fault at 80s -> MRC2
	if rig.Supervisor.Level() != 2 {
		t.Fatalf("level = %d, want 2 (global)", rig.Supervisor.Level())
	}
	for _, f := range rig.Forklifts {
		if f.Operational() {
			t.Errorf("%s still operational after MRC2", f.ID())
		}
	}
	res := Result{Report: rig.Collector.Report(), Log: rig.Engine.Env().Log}
	if _, ok := res.Log.First(sim.EventMRCLocal); !ok {
		t.Error("MRC1 (local) event missing")
	}
	if _, ok := res.Log.First(sim.EventMRCGlobal); !ok {
		t.Error("MRC2 (global) event missing")
	}
}

func TestHarbourSingleLevelStopsEverythingAtOnce(t *testing.T) {
	weather := world.MustWeatherSchedule(
		world.WeatherChange{At: 60 * time.Second, Condition: world.Rain, TemperatureC: 2},
	)
	rig, err := NewHarbour(HarbourConfig{Forklifts: 3, TwoLevel: false, Weather: weather})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(2 * time.Minute)
	if rig.Supervisor.Level() != 2 {
		t.Fatalf("level = %d, want straight to 2", rig.Supervisor.Level())
	}
	for _, c := range rig.All() {
		if c.Operational() {
			t.Errorf("%s still operational under single-level policy", c.ID())
		}
	}
}

func TestPlatoonRig(t *testing.T) {
	rig, err := NewPlatoon(PlatoonConfig{
		Members: 4,
		Faults: []fault.Fault{
			{ID: "radar", Target: "member1", Kind: fault.KindSensor,
				Detail: "long_range_radar", Severity: 1, Permanent: true, At: 60 * time.Second},
			{ID: "cam", Target: "member1", Kind: fault.KindSensor,
				Detail: "camera", Severity: 1, Permanent: true, At: 60 * time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(50 * time.Second)
	before := rig.Platoon.MeanSpeed()
	rig.Run(2 * time.Minute)
	if rig.Platoon.Elections() != 1 {
		t.Fatalf("elections = %d", rig.Platoon.Elections())
	}
	if after := rig.Platoon.MeanSpeed(); after < before*0.9 {
		t.Errorf("speed %v -> %v across handover", before, after)
	}
}

func TestBuilderRejectsUnsupportedPolicies(t *testing.T) {
	if _, err := NewQuarry(QuarryConfig{Policy: PolicyKind(99)}); err == nil {
		t.Error("unknown quarry policy should error")
	}
	if _, err := NewHighway(HighwayConfig{Policy: PolicyOrchestrated}); err == nil {
		t.Error("orchestrated highway should error (not wired)")
	}
}
