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

// RunE13 checks Definition 3 as an executable property: across
// randomized concerted-MRM episodes (varying helper counts, assist
// speeds and fault kinds), every completed episode must leave the
// initiator in MRC with all helpers released and operational.
func RunE13(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E13",
		Title:  "concerted MRM invariant (Definition 3)",
		Paper:  "Definition 3",
		Header: []string{"trials", "completed", "invariant_violations", "mean_completion_s"},
		Note:   "invariant: a completed concerted MRM results in MRC for >= 1 involved constituent; helpers are released",
	}
	trials := 20
	if opt.Quick {
		trials = 6
	}
	rng := sim.NewRNG(opt.Seed)
	completed, violations := 0, 0
	var totalDur time.Duration
	for i := 0; i < trials; i++ {
		nHelpers := rng.Intn(4) + 1
		assist := rng.Range(1, 5)
		kind := []fault.Kind{fault.KindSensor, fault.KindPropulsion, fault.KindLocalization}[rng.Intn(3)]
		ok, violated, dur := runE13Episode(opt.Seed+int64(i), nHelpers, assist, kind)
		if ok {
			completed++
			totalDur += dur
		}
		if violated {
			violations++
		}
	}
	mean := 0.0
	if completed > 0 {
		mean = totalDur.Seconds() / float64(completed)
	}
	t.AddRow(fmt.Sprintf("%d", trials), fmt.Sprintf("%d", completed),
		fmt.Sprintf("%d", violations), f1(mean))
	return t
}

func runE13Episode(seed int64, nHelpers int, assistSpeed float64, kind fault.Kind) (completed, violated bool, dur time.Duration) {
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-500, 0), geom.V(50000, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-500, 4), geom.V(50000, 7))})
	roadODD := odd.DefaultRoadSpec()
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond, Seed: seed})
	initiator := core.MustConstituent(core.Config{
		ID: "ego", Spec: vehicle.DefaultSpec(vehicle.KindCar),
		Start: geom.Pose{Pos: geom.V(0, 2)}, World: w, ODD: &roadODD,
		Hierarchy: core.DefaultRoadHierarchy(),
	})
	e.MustRegister(initiator)
	_ = initiator.Dispatch(geom.MustPath(geom.V(0, 2), geom.V(50000, 2)), 25)
	var helpers []*core.Constituent
	for i := 0; i < nHelpers; i++ {
		h := core.MustConstituent(core.Config{
			ID: fmt.Sprintf("nbr%d", i), Spec: vehicle.DefaultSpec(vehicle.KindCar),
			Start: geom.Pose{Pos: geom.V(float64(-40*(i+1)), 2)}, World: w, ODD: &roadODD,
			Hierarchy: core.DefaultRoadHierarchy(),
		})
		_ = h.Dispatch(geom.MustPath(h.Body().Position(), geom.V(50000, 2)), 25)
		e.MustRegister(h)
		helpers = append(helpers, h)
	}
	ep := core.NewConcertedMRM(initiator, helpers, "episode")
	ep.AssistSpeed = assistSpeed
	e.MustRegister(ep)

	e.RunFor(10 * time.Second)
	initiator.ApplyFault(fault.Fault{ID: "f", Target: "ego", Kind: kind, Severity: 1, Permanent: true})
	ep.Start(e.Env())
	start := e.Env().Clock.Now()
	e.RunFor(5 * time.Minute)

	completed = ep.Completed()
	if completed {
		if ev, ok := e.Env().Log.First(sim.EventMRCReached); ok {
			dur = ev.Time - start
		}
		if !initiator.InMRC() {
			violated = true
		}
		for _, h := range helpers {
			if h.Assisting() {
				violated = true
			}
		}
	}
	return completed, violated, dur
}

// RunE14 quantifies the paper's motivating claim: cooperative and
// collaborative classes preserve productivity under failures that an
// individual-AV baseline cannot absorb. Every class runs the same
// fault campaign (a truck fails mid-shift, then a digger).
func RunE14(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E14",
		Title:  "every class vs the individual-AV baseline",
		Paper:  "Sec. I motivation",
		Header: []string{"class", "deliveries", "operational_share", "collisions", "vs_baseline"},
		Note:   "identical campaign: truck1_1 blind at t=60s, digger1 blind at t=180s (second digger survives)",
	}
	horizon := 8 * time.Minute
	if opt.Quick {
		horizon = 3 * time.Minute
	}
	campaign := []fault.Fault{
		{ID: "t", Target: "truck1_1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 60 * time.Second},
		{ID: "d", Target: "digger1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 180 * time.Second},
	}
	baseline := -1.0
	for _, p := range scenario.AllPolicies() {
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2, Policy: p, Seed: opt.Seed,
			Concerted: true,
			Faults:    append([]fault.Fault(nil), campaign...),
		})
		res := rig.Run(horizon)
		opt.Observe("class="+p.String(), res.Report, res.Log, rig.Net, rig.Injector)
		delivered := rig.Delivered()
		if p == scenario.PolicyBaseline {
			baseline = delivered
		}
		rel := "-"
		if baseline > 0 && p != scenario.PolicyBaseline {
			rel = fmt.Sprintf("%+.0f%%", 100*(delivered-baseline)/baseline)
		}
		t.AddRow(p.String(), f1(delivered), pct(res.Report.OperationalShare),
			fmt.Sprintf("%d", res.Report.Collisions), rel)
	}
	return t
}
