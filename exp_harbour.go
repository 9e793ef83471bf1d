package coopmrm

import (
	"fmt"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
	"coopmrm/internal/world"
)

// RunE5 reproduces the Sec. III-C harbour narrative: cold rain aborts
// the unloading goal with MRM1 into MRC1 (local: the crane halts,
// forklifts finish in-flight containers and park); a slipping
// forklift during MRM1 escalates with MRM2 into MRC2 (global:
// immediate stop). The comparison arm allows only the single global
// level, quantifying why "a local MRC is preferred for productivity
// reasons".
func RunE5(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E5",
		Title:  "harbour MRC1 -> MRC2 escalation",
		Paper:  "Sec. III-C",
		Header: []string{"policy", "containers_total", "containers_after_trigger", "final_level", "all_safe", "interventions"},
		Note:   "cold rain at t=75s; forklift2 slips at t=130s; horizon 6 min",
	}
	horizon := 6 * time.Minute
	if opt.Quick {
		horizon = 3 * time.Minute
	}
	for _, twoLevel := range []bool{true, false} {
		label := "two_level_hierarchy"
		if !twoLevel {
			label = "global_only"
		}
		total, afterTrigger, level, allSafe, iv := runE5Arm(opt, label, twoLevel, horizon)
		t.AddRow(label, f1(total), f1(afterTrigger),
			fmt.Sprintf("MRC%d", level), yesno(allSafe), fmt.Sprintf("%d", iv))
	}
	return t
}

func runE5Arm(opt Options, label string, twoLevel bool, horizon time.Duration) (total, afterTrigger float64, level int, allSafe bool, interventions int) {
	weather := world.MustWeatherSchedule(
		world.WeatherChange{At: 75 * time.Second, Condition: world.Rain, TemperatureC: 2},
	)
	rig, err := scenario.NewHarbour(scenario.HarbourConfig{
		Forklifts: 3,
		Seed:      opt.Seed,
		TwoLevel:  twoLevel,
		Weather:   weather,
		Faults: []fault.Fault{{
			ID: "slip", Target: "forklift2", Kind: fault.KindBrake,
			Severity: 0.5, Permanent: true, At: 130 * time.Second,
		}},
	})
	if err != nil {
		panic(err)
	}
	rig.Run(75 * time.Second)
	beforeTrigger := rig.Delivered()
	res := rig.Run(horizon - 75*time.Second)
	opt.Observe(label, res.Report, res.Log, nil, rig.Injector)

	total = rig.Delivered()
	afterTrigger = total - beforeTrigger
	level = rig.Supervisor.Level()
	allSafe = true
	for _, c := range rig.All() {
		if c.Operational() {
			allSafe = false
		}
	}
	interventions = res.Report.Interventions
	return total, afterTrigger, level, allSafe, interventions
}
