package coopmrm

import (
	"fmt"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// AllAblations returns the design-choice ablations (A1..A5) from the
// DESIGN.md inventory. These do not correspond to paper artefacts;
// they quantify the sensitivity of our design parameters.
func AllAblations() []Experiment {
	return []Experiment{
		{"A1", "MRC hierarchy depth vs residual risk", "design: Fig. 1b hierarchy", RunA1},
		{"A2", "Status-beacon period vs adaptation speed", "design: V2X beaconing", RunA2},
		{"A3", "Pass-around patience vs throughput and exposure", "design: operational layer", RunA3},
		{"A4", "Message loss vs agreement-seeking outcomes", "design: V2X robustness", RunA4},
		{"A5", "MRC resolution rate vs cumulative risk exposure", "design: resolution-rate factor", RunA5},
	}
}

// AblationByID returns the ablation with the given ID.
func AblationByID(id string) (Experiment, bool) {
	for _, e := range AllAblations() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunA1 ablates the depth of the individual-AV MRC hierarchy: with
// only the emergency stop the vehicle always stops at high residual
// risk; each added level buys a better stopped state at the cost of a
// longer, more demanding MRM.
func RunA1(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "A1",
		Title:  "MRC hierarchy depth vs residual risk",
		Paper:  "design: Fig. 1b hierarchy",
		Header: []string{"hierarchy", "levels", "final_mrc", "stop_risk", "mrm_duration_s"},
		Note:   "same ODD-exit trigger (snow at t=30s) against progressively deeper hierarchies",
	}
	hierarchies := []struct {
		name string
		h    *core.Hierarchy
	}{
		{"emergency_only", core.MustHierarchy(
			core.MRC{ID: "emergency", Stop: core.StopEmergency, Risk: 0.95},
		)},
		{"plus_in_lane", core.MustHierarchy(
			core.MRC{ID: "in_lane", Stop: core.StopInPlace, Risk: 0.8},
			core.MRC{ID: "emergency", Stop: core.StopEmergency, Risk: 0.95},
		)},
		{"plus_shoulder", core.MustHierarchy(
			core.MRC{ID: "shoulder", Stop: core.StopAdjacent, TargetZone: world.ZoneShoulder,
				Risk: 0.4, MaxDistance: 600, NeedsSteering: true, MinPerception: 10},
			core.MRC{ID: "in_lane", Stop: core.StopInPlace, Risk: 0.8},
			core.MRC{ID: "emergency", Stop: core.StopEmergency, Risk: 0.95},
		)},
		{"full_road", core.DefaultRoadHierarchy()},
	}
	for _, hc := range hierarchies {
		mrc, risk, dur := runA1Arm(opt.Seed, hc.h)
		t.AddRow(hc.name, fmt.Sprintf("%d", len(hc.h.MRCs())), mrc, f2(risk), f1(dur.Seconds()))
	}
	return t
}

func runA1Arm(seed int64, h *core.Hierarchy) (finalMRC string, risk float64, dur time.Duration) {
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-100, 0), geom.V(12000, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-100, 4), geom.V(12000, 7))})
	w.MustAddZone(world.Zone{ID: "rest", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(3000, 8), geom.V(3060, 30))})
	roadODD := odd.DefaultRoadSpec()
	c := core.MustConstituent(core.Config{
		ID: "ego", Spec: vehicle.DefaultSpec(vehicle.KindCar),
		Start: geom.Pose{Pos: geom.V(0, 2)}, World: w, ODD: &roadODD, Hierarchy: h,
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, Seed: seed})
	e.MustRegister(c)
	_ = c.Dispatch(geom.MustPath(geom.V(0, 2), geom.V(12000, 2)), 30)
	e.RunFor(30 * time.Second)
	w.Weather = world.Weather{Condition: world.Snow, TemperatureC: -2}
	e.RunFor(6 * time.Minute)
	log := e.Env().Log
	start, _ := log.First(sim.EventMRMStarted)
	end, okE := log.Last(sim.EventMRCReached)
	if okE {
		dur = end.Time - start.Time
	}
	return c.CurrentMRC().ID, w.StopRiskAt(c.Body().Position()), dur
}

// RunA2 ablates the status-beacon period: slower beacons mean the
// survivors learn about a blockage later and lose more productive
// time behind it.
func RunA2(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "A2",
		Title:  "status-beacon period vs adaptation speed",
		Paper:  "design: V2X beaconing",
		Header: []string{"beacon_period_s", "deliveries", "reroute_delay_s"},
		Note:   "truck1_1 goes blind in the tunnel at t=21s under status-sharing; reroute delay = first survivor avoidance after the victim's MRM started",
	}
	horizon := 4 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}
	for _, period := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 10 * time.Second} {
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2,
			Policy:       scenario.PolicyStatusSharing,
			Seed:         opt.Seed,
			BeaconPeriod: period,
		})
		victim := rig.Trucks[0]
		rig.Run(21 * time.Second)
		victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
		victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
			Kind: fault.KindSensor, Severity: 1, Permanent: true})

		// Track when the first survivor starts avoiding the blockage.
		var rerouteAt time.Duration = -1
		rig.Engine.AddPostHook(func(env *sim.Env) {
			if rerouteAt >= 0 {
				return
			}
			for i := 1; i < len(rig.Hauls); i++ {
				if rig.Hauls[i].AvoidedEdge("load", "mid") || rig.Hauls[i].AvoidedEdge("mid", "dep") {
					rerouteAt = env.Clock.Now()
					return
				}
			}
		})
		rig.Run(horizon)
		delay := "never"
		if ev, ok := rig.Engine.Env().Log.First(sim.EventMRMStarted); ok && rerouteAt >= 0 {
			delay = f1((rerouteAt - ev.Time).Seconds())
		}
		t.AddRow(f1(period.Seconds()), f1(rig.Delivered()), delay)
	}
	return t
}

// RunA3 ablates the operational pass-around patience: short patience
// maximises throughput at service points but increases close passes;
// long patience is conservative and slow.
func RunA3(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "A3",
		Title:  "pass-around patience vs throughput and exposure",
		Paper:  "design: operational layer",
		Header: []string{"patience_s", "deliveries", "collisions", "near_misses"},
		Note:   "busy quarry, no faults: short patience passes congestion before queues form in the tunnel; long patience queues (itself risk-relevant) and throttles throughput",
	}
	horizon := 5 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}
	for _, patience := range []time.Duration{2 * time.Second, 8 * time.Second, 30 * time.Second} {
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2,
			Policy:   scenario.PolicyStatusSharing,
			Seed:     opt.Seed,
			Patience: patience,
		})
		res := rig.Run(horizon)
		t.AddRow(f1(patience.Seconds()), f1(rig.Delivered()),
			fmt.Sprintf("%d", res.Report.Collisions),
			fmt.Sprintf("%d", res.Report.NearMisses))
	}
	return t
}

// RunA4 ablates V2X message loss against the agreement-seeking class:
// with heavy loss the gap request or its acks vanish and the ego falls
// back to the conservative in-lane stop after the timeout.
func RunA4(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "A4",
		Title:  "message loss vs agreement-seeking outcomes",
		Paper:  "design: V2X robustness",
		Header: []string{"loss_prob", "ego_final_mrc", "agreed", "stop_risk"},
		Note:   "ego perception degrades to 15 m at t=30s; peers consent when they hear the request",
	}
	horizon := 4 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}
	for _, loss := range []float64{0, 0.5, 0.98} {
		rig, err := scenario.NewHighway(scenario.HighwayConfig{
			NCars: 5, Policy: scenario.PolicyAgreementSeeking,
			Seed: opt.Seed, Loss: loss,
		})
		if err != nil {
			panic(err)
		}
		rig.Injector.MustSchedule(rig.PerceptionFault(30*time.Second, 15, true))
		rig.Run(horizon)
		agreed := "no"
		if r := rig.Ego.MRMReason(); r != "" && !contains(r, "no agreement") {
			agreed = "yes"
		}
		t.AddRow(f2(loss), rig.Ego.CurrentMRC().ID, agreed,
			f2(rig.World.StopRiskAt(rig.Ego.Body().Position())))
	}
	return t
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// RunE16 is the fleet-size scale sweep: the same blocked-haul-road
// incident (a truck goes blind mid-tunnel and reaches MRC there)
// against growing quarry deployments, with the individual-AV baseline
// and status-sharing arms side by side. The taxonomy and
// infrastructure-assisted ToC literature argue MRM/MRC behaviour must
// be evaluated on deployments (many constituents), not pairs; the
// broad-phase proximity index is what makes the 10-pair arm
// computationally feasible (see bench_test.go for the
// brute-vs-indexed speedup on this rig).
//
// Expected shape: the productivity gap between the cooperative arm
// and the baseline widens with fleet size — every extra baseline
// truck queues behind the blockage while status-sharing trucks
// reroute — and wall clock stays sublinear in pair count versus the
// brute-force pass (captured in BENCH_quick.json).
func RunE16(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E16",
		Title:  "fleet-size scale sweep: cooperation payoff per deployment size",
		Paper:  "scale extension (deployment-level evaluation)",
		Header: []string{"pairs", "constituents", "base_units_per_min", "coop_units_per_min", "gap_units_per_min", "coop_near_misses"},
		Note:   "truck1_1 is stranded blind mid-tunnel at t=0 and blocks the haul road; baseline trucks queue, status-sharing trucks reroute via alt",
	}
	sizes := []int{2, 4, 6, 8, 10}
	horizon := 6 * time.Minute
	if opt.Quick {
		sizes = []int{2, 6, 10}
		horizon = 2 * time.Minute
	}
	for _, pairs := range sizes {
		base := runE16Arm(opt, pairs, scenario.PolicyBaseline, horizon)
		coop := runE16Arm(opt, pairs, scenario.PolicyStatusSharing, horizon)
		baseRate := base.delivered / horizon.Minutes()
		coopRate := coop.delivered / horizon.Minutes()
		t.AddRow(fmt.Sprintf("%d", pairs), fmt.Sprintf("%d", 2*pairs),
			f2(baseRate), f2(coopRate), f2(coopRate-baseRate),
			fmt.Sprintf("%d", coop.nearMisses))
	}
	return t
}

type e16Arm struct {
	delivered  float64
	nearMisses int
}

func runE16Arm(opt Options, pairs int, policy scenario.PolicyKind, horizon time.Duration) e16Arm {
	rig := mustQuarry(scenario.QuarryConfig{
		Pairs: pairs, TrucksPerPair: 1,
		Policy: policy,
		Seed:   opt.Seed,
	})
	// Strand the victim mid-tunnel before anyone moves (same staging
	// as E6): it reaches MRC on the haul road and becomes the
	// blockage every other constituent must deal with for the whole
	// horizon.
	victim := rig.Trucks[0]
	victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
		Kind: fault.KindSensor, Severity: 1, Permanent: true})
	res := rig.Run(horizon)
	opt.Observe(fmt.Sprintf("pairs=%d/%s", pairs, policy),
		res.Report, res.Log, rig.Net, rig.Injector)
	return e16Arm{delivered: rig.Delivered(), nearMisses: res.Report.NearMisses}
}

// RunA5 ablates the MRC resolution rate: the adopted MRC definition
// counts "the rate of resolving the MRC" towards its acceptability,
// because residual risk accumulates while an MRC stays unresolved. A
// repair crew's response time is swept against cumulative risk
// exposure and productivity on a recurring-fault shift.
func RunA5(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "A5",
		Title:  "MRC resolution rate vs cumulative risk exposure",
		Paper:  "design: adopted MRC definition (resolution-rate factor)",
		Header: []string{"repair_response_s", "deliveries", "risk_exposure_risk_s", "interventions"},
		Note:   "recurring permanent faults every ~2 min on a coordinated quarry; the crew recovers each MRC after the given response time",
	}
	horizon := 12 * time.Minute
	if opt.Quick {
		horizon = 6 * time.Minute
	}
	for _, response := range []time.Duration{30 * time.Second, 2 * time.Minute, 6 * time.Minute} {
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2,
			Policy: scenario.PolicyStatusSharing,
			Seed:   opt.Seed,
			Faults: []fault.Fault{
				{ID: "f1", Target: "truck1_1", Kind: fault.KindSensor,
					Severity: 1, Permanent: true, At: 60 * time.Second},
				{ID: "f2", Target: "truck2_1", Kind: fault.KindSensor,
					Severity: 1, Permanent: true, At: 180 * time.Second},
				{ID: "f3", Target: "truck1_2", Kind: fault.KindSensor,
					Severity: 1, Permanent: true, At: 300 * time.Second},
			},
		})
		crew := scenario.NewRepairCrew("crew", response, rig.All()...)
		rig.Engine.MustRegister(crew)
		res := rig.Run(horizon)
		t.AddRow(f1(response.Seconds()), f1(rig.Delivered()),
			f1(res.Report.RiskExposure),
			fmt.Sprintf("%d", res.Report.Interventions))
	}
	return t
}
