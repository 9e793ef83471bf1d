package coopmrm

import (
	"fmt"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
)

// RunE19 quantifies the transition risk of the trajectory-level MRM
// planner per interaction class and fault mode. Every manoeuvre — a
// planned positional trajectory, a scored scripted stop, a fallback
// hop — records a measured transition risk (internal/traj), and the
// metrics layer aggregates them per run; E19 sweeps that measurement
// over interaction class (individual / cooperative / collaborative)
// × fault mode (blind sensor, steering loss, severe brake loss) and
// aggregates over seeds with the streaming campaign machinery, so the
// numeric cells carry mean±sd and the 95% CI half-width.
func RunE19(opt Options) Table {
	opt = opt.withDefaults()
	inner := Experiment{
		ID:    "E19",
		Title: "transition risk per interaction class and fault mode",
		Paper: "planner extension (quantified Definition 3 risk)",
		Run:   runE19Seed,
	}
	n := 10
	if opt.Quick {
		n = 3
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = opt.Seed + int64(i)
	}
	// The sweep's fold runs bare; the bundle gets one full observation
	// pass on the first seed below.
	tab, err := SweepSeedsStream(inner, opt, seeds, 1, CampaignConfig{})
	if err != nil {
		panic(err)
	}
	if opt.Artifacts != nil {
		runE19Seed(opt.WithSeed(seeds[0]))
	}
	return tab
}

// e19Classes maps the paper's interaction-class axis onto the quarry
// policies: an individual AV, the cooperative status-sharing class,
// and the collaborative coordinated class.
var e19Classes = []struct {
	label  string
	policy scenario.PolicyKind
}{
	{"individual", scenario.PolicyBaseline},
	{"cooperative", scenario.PolicyStatusSharing},
	{"collaborative", scenario.PolicyCoordinated},
}

// e19Faults is the fault-mode axis. The 0.92 brake severity leaves
// only the emergency stop feasible (service stops need more brake
// authority), exercising the quantified fallback chain rather than a
// clean positional manoeuvre.
var e19Faults = []struct {
	label    string
	kind     fault.Kind
	severity float64
}{
	{"sensor_blind", fault.KindSensor, 1.0},
	{"steering_loss", fault.KindSteering, 1.0},
	{"brake_severe", fault.KindBrake, 0.92},
}

// runE19Seed is the per-seed experiment the campaign folds: one quarry
// run per (class, fault) cell.
func runE19Seed(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E19",
		Title:  "transition risk per interaction class and fault mode",
		Paper:  "planner extension (quantified Definition 3 risk)",
		Header: []string{"class", "fault", "manoeuvres", "risk_mean", "risk_max", "mrm_switches", "replans", "units_per_min"},
		Note:   "truck1_1 faulted at t=30s, permanent; risk_mean/risk_max are the measured per-manoeuvre transition risks (planned trajectories and scored scripted stops alike)",
	}
	horizon := 3 * time.Minute
	if opt.Quick {
		horizon = 90 * time.Second
	}
	for _, class := range e19Classes {
		for _, fm := range e19Faults {
			rig := mustQuarry(scenario.QuarryConfig{
				Pairs: 2, TrucksPerPair: 1,
				Policy: class.policy,
				Seed:   opt.Seed,
				Faults: []fault.Fault{{
					ID: "e19", Target: "truck1_1", Kind: fm.kind,
					Severity: fm.severity, Permanent: true, At: 30 * time.Second,
				}},
			})
			res := rig.Run(horizon)
			opt.Observe(fmt.Sprintf("class=%s/fault=%s", class.label, fm.label),
				res.Report, res.Log, rig.Net, rig.Injector)
			replans := 0
			for _, c := range rig.All() {
				replans += c.Replans()
			}
			t.AddRow(class.label, fm.label,
				fmt.Sprintf("%d", res.Report.Manoeuvres),
				f2(res.Report.TransitionRiskMean),
				f2(res.Report.TransitionRiskMax),
				fmt.Sprintf("%d", res.Log.Count(sim.EventMRMSwitched)),
				fmt.Sprintf("%d", replans),
				f2(rig.Delivered()/horizon.Minutes()))
		}
	}
	return t
}
