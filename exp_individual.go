package coopmrm

import (
	"fmt"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// RunE1 reproduces Fig. 1a/1b: a single AV whose ODD exit triggers an
// MRM towards the best MRC (rest stop); a secondary failure mid-MRM
// forces a fallback to an easier MRC (shoulder). Sweeping the
// secondary-failure time shows the hierarchy in action: early
// failures land on the shoulder, late (or absent) ones reach the rest
// stop.
func RunE1(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E1",
		Title:  "individual MRM/MRC hierarchy with mid-MRM fallback",
		Paper:  "Fig. 1a/1b",
		Header: []string{"secondary_fault", "final_MRC", "mrm_switches", "stop_risk", "mrm_duration_s"},
		Note:   "primary trigger: snow exits the road ODD at t=30s; secondary: propulsion failure at the given offset after the MRM start",
	}
	offsets := []time.Duration{0, 10 * time.Second, 60 * time.Second, 150 * time.Second}
	if opt.Quick {
		offsets = []time.Duration{0, 10 * time.Second}
	}
	for _, off := range offsets {
		label := "none"
		if off > 0 {
			label = fmt.Sprintf("t1+%ds", int(off.Seconds()))
		}
		finalMRC, switches, risk, dur := runE1Arm(opt, label, off)
		t.AddRow(label, finalMRC, fmt.Sprintf("%d", switches), f2(risk), f1(dur.Seconds()))
	}
	return t
}

func runE1Arm(opt Options, label string, secondaryAfter time.Duration) (finalMRC string, switches int, risk float64, mrmDur time.Duration) {
	rig, err := scenario.NewHighway(scenario.HighwayConfig{NCars: 1, Seed: opt.Seed})
	if err != nil {
		panic(err)
	}
	rig.Run(30 * time.Second)
	// Primary trigger: snow exits the road ODD while capabilities are
	// intact, so the best MRC (rest stop) is selected.
	rig.World.Weather = world.Weather{Condition: world.Snow, TemperatureC: -2}
	if secondaryAfter > 0 {
		rig.Injector.MustSchedule(fault.Fault{
			ID: "engine", Target: rig.Ego.ID(), Kind: fault.KindPropulsion,
			Severity: 1, Permanent: true, At: 30*time.Second + secondaryAfter,
		})
	}
	res := rig.Run(8 * time.Minute)
	opt.Observe("secondary="+label, res.Report, res.Log, rig.Net, rig.Injector)

	log := rig.Engine.Env().Log
	finalMRC = rig.Ego.CurrentMRC().ID
	switches = log.Count(sim.EventMRMSwitched)
	risk = rig.World.StopRiskAt(rig.Ego.Body().Position())
	start, okS := log.First(sim.EventMRMStarted)
	end, okE := log.Last(sim.EventMRCReached)
	if okS && okE {
		mrmDur = end.Time - start.Time
	}
	return finalMRC, switches, risk, mrmDur
}

// RunE4 reproduces the four Sec. III-B cases that separate
// performance degradation from MRC:
//
//	(i)   permanent radar fault  -> permanent degradation, goal kept
//	(ii)  rain                   -> temporary degradation, self-clears
//	(iii) digger breakdown       -> local MRC (with pair redundancy)
//	(iv)  platoon leader fault   -> role change, no system degradation
func RunE4(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E4",
		Title:  "degradation vs MRC classification",
		Paper:  "Sec. III-B cases (i)-(iv)",
		Header: []string{"case", "trigger", "classification", "system_effect", "interventions"},
	}

	// Case (i): permanent radar fault on one truck.
	{
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, Policy: scenario.PolicyCoordinated, Seed: opt.Seed,
			Faults: []fault.Fault{{
				ID: "radar", Target: "truck1_1", Kind: fault.KindSensor,
				Detail: "long_range_radar", Severity: 1, Permanent: true, At: 60 * time.Second,
			}},
		})
		res := rig.Run(e4Horizon(opt))
		cls := classificationOf(res.Log, "truck1_1")
		capRatio := rig.Trucks[0].SpeedCap() / rig.Trucks[0].Body().Spec().MaxSpeed
		t.AddRow("(i)", "radar fault (permanent)", cls,
			fmt.Sprintf("operational, speed cap %s of max", pct(capRatio)),
			fmt.Sprintf("%d", res.Report.Interventions))
	}

	// Case (ii): rain reduces perception temporarily.
	{
		rig := mustQuarry(scenario.QuarryConfig{Pairs: 2, Policy: scenario.PolicyCoordinated, Seed: opt.Seed})
		rig.Run(60 * time.Second)
		rig.World.Weather = world.Weather{Condition: world.Rain, TemperatureC: 15}
		rig.Run(90 * time.Second)
		rig.World.Weather = world.Weather{Condition: world.Clear, TemperatureC: 15}
		res := rig.Run(60 * time.Second)
		cls := classificationOf(res.Log, "truck1_1")
		cleared := res.Log.Count(sim.EventDegradCleared) > 0
		t.AddRow("(ii)", "rain (temporary)", cls,
			fmt.Sprintf("recovered without intervention: %s", yesno(cleared)),
			fmt.Sprintf("%d", res.Report.Interventions))
	}

	// Case (iii): one of two diggers breaks down.
	{
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, Policy: scenario.PolicyCoordinated, Seed: opt.Seed,
			Faults: []fault.Fault{{
				ID: "dig", Target: "digger1", Kind: fault.KindSensor,
				Severity: 1, Permanent: true, At: 60 * time.Second,
			}},
		})
		res := rig.Run(e4Horizon(opt))
		operational := 0
		for _, c := range rig.All() {
			if c.Operational() {
				operational++
			}
		}
		t.AddRow("(iii)", "digger breakdown", "local MRC (constituent view)",
			fmt.Sprintf("%d/%d constituents continue, %.0f units delivered",
				operational, len(rig.All()), rig.Delivered()),
			fmt.Sprintf("%d", res.Report.Interventions))
	}

	// Case (iv): platoon leader loses its forward sensors.
	{
		rig, err := scenario.NewPlatoon(scenario.PlatoonConfig{
			Members: 5, Seed: opt.Seed,
			Faults: []fault.Fault{
				{ID: "radar", Target: "member1", Kind: fault.KindSensor,
					Detail: "long_range_radar", Severity: 1, Permanent: true, At: 60 * time.Second},
				{ID: "cam", Target: "member1", Kind: fault.KindSensor,
					Detail: "camera", Severity: 1, Permanent: true, At: 60 * time.Second},
			},
		})
		if err != nil {
			panic(err)
		}
		rig.Run(55 * time.Second)
		before := rig.Platoon.MeanSpeed()
		res := rig.Run(e4Horizon(opt))
		after := rig.Platoon.MeanSpeed()
		t.AddRow("(iv)", "platoon leader sensor fault",
			"role change (constituent: permanent degradation)",
			fmt.Sprintf("leader handovers %d, speed %s kept (%.1f -> %.1f m/s)",
				rig.Platoon.Elections(), pct(after/before), before, after),
			fmt.Sprintf("%d", res.Report.Interventions))
	}
	return t
}

func e4Horizon(opt Options) time.Duration {
	if opt.Quick {
		return 2 * time.Minute
	}
	return 4 * time.Minute
}

// classificationOf extracts the degradation classification recorded
// for a subject.
func classificationOf(log *sim.EventLog, subject string) string {
	for _, ev := range log.ByKind(sim.EventDegraded) {
		if ev.Subject == subject {
			return ev.Fields["kind"]
		}
	}
	for _, ev := range log.ByKind(sim.EventMRCReached) {
		if ev.Subject == subject {
			return "mrc"
		}
	}
	return "nominal"
}

func mustQuarry(cfg scenario.QuarryConfig) *scenario.QuarryRig {
	rig, err := scenario.NewQuarry(cfg)
	if err != nil {
		panic(err)
	}
	return rig
}
