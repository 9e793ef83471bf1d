package coopmrm

import (
	"fmt"
	"strings"
	"time"

	"coopmrm/internal/coop"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
)

// RunE6 reproduces the Sec. IV-A status-sharing example: a truck
// reaches MRC inside a narrow passage and shares its stopped
// position; receiving trucks reroute and keep delivering, while
// without sharing they pile up behind the blockage.
func RunE6(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E6",
		Title:  "status-sharing reroute around a stranded truck",
		Paper:  "Sec. IV-A (status-sharing, mine)",
		Header: []string{"policy", "deliveries_after_block", "survivors_blocked", "collisions", "rerouted"},
		Note:   "truck1_1 is stranded blind in the tunnel at t=0; survivors haul for the horizon",
	}
	horizon := 5 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}
	for _, p := range []scenario.PolicyKind{scenario.PolicyBaseline, scenario.PolicyStatusSharing} {
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2, Policy: p, Seed: opt.Seed,
		})
		// Strand the first truck mid-tunnel before anyone moves.
		victim := rig.Trucks[0]
		victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
		victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
			Kind: fault.KindSensor, Severity: 1, Permanent: true})
		res := rig.Run(horizon)
		opt.Observe("policy="+p.String(), res.Report, res.Log, rig.Net, rig.Injector)

		blocked := 0
		rerouted := false
		for i, c := range rig.Trucks {
			if c == victim {
				continue
			}
			if c.Holding() {
				blocked++
			}
			if rig.Hauls[i].Avoided("mid") {
				rerouted = true
			}
		}
		t.AddRow(p.String(), f1(rig.Delivered()),
			fmt.Sprintf("%d", blocked),
			fmt.Sprintf("%d", res.Report.Collisions),
			yesno(rerouted))
	}
	return t
}

// RunE7 reproduces the Sec. IV-A intent-sharing example: a car
// announces its planned shoulder MRC so surrounding traffic adapts
// during the transition. Measured against status-only and no sharing.
func RunE7(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E7",
		Title:  "intent-sharing during a shoulder MRM",
		Paper:  "Sec. IV-A (intent-sharing, freeway)",
		Header: []string{"policy", "ego_final_mrc", "ego_min_sep_m", "early_reactions", "emergency_hold_s", "traffic_progress_km"},
		Note:   "ego perception degrades to 15 m at t=30s (outside the road ODD, enough for the shoulder MRM); early_reactions counts cars adapting before the manoeuvre, emergency_hold_s the reactive last-moment holds",
	}
	horizon := 4 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}
	for _, p := range []scenario.PolicyKind{
		scenario.PolicyBaseline, scenario.PolicyStatusSharing, scenario.PolicyIntentSharing,
	} {
		rig, err := scenario.NewHighway(scenario.HighwayConfig{NCars: 5, Policy: p, Seed: opt.Seed})
		if err != nil {
			panic(err)
		}
		rig.Injector.MustSchedule(rig.PerceptionFault(30*time.Second, 15, true))
		holdTime := attachHoldTimer(rig)
		egoSep := attachEgoSeparation(rig)
		res := rig.Run(horizon)
		reactions := 0
		for _, ev := range res.Log.ByKind(sim.EventInfo) {
			if strings.Contains(ev.Detail, "slowing for announced MRM") {
				reactions++
			}
		}
		t.AddRow(p.String(), rig.Ego.CurrentMRC().ID,
			f2(*egoSep),
			fmt.Sprintf("%d", reactions),
			f1(holdTime.Seconds()),
			f2(rig.Progress()/1000))
	}
	return t
}

// attachEgoSeparation tracks the minimum footprint distance between
// the ego and any other car while the ego executes its MRM — the
// transition-risk measure of the intent-sharing example.
func attachEgoSeparation(rig *scenario.HighwayRig) *float64 {
	minSep := -1.0
	cars := rig.All()
	rig.Engine.AddPostHook(func(env *sim.Env) {
		if !rig.Ego.MRMActive() {
			return
		}
		for _, c := range cars {
			if c == rig.Ego {
				continue
			}
			d := rig.Ego.Body().Footprint().Dist(c.Body().Footprint())
			if minSep < 0 || d < minSep {
				minSep = d
			}
		}
	})
	return &minSep
}

// attachHoldTimer accumulates the time the non-ego traffic spends in
// reactive obstacle holds — the last-moment braking that early
// (intent-based) adaptation reduces.
func attachHoldTimer(rig *scenario.HighwayRig) *time.Duration {
	var held time.Duration
	cars := rig.All()
	rig.Engine.AddPostHook(func(env *sim.Env) {
		for _, c := range cars {
			if c != rig.Ego && c.Holding() {
				held += env.Clock.Step()
			}
		}
	})
	return &held
}

// RunE8 reproduces the Sec. IV-A agreement-seeking examples:
// (a) a failing car requests a gap and enacts a concerted MRM once
// all peers consent (with the no-consent fallback measured too), and
// (b) a mine fire evacuated through a negotiated order — a global MRC
// of the agreement-seeking class.
func RunE8(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E8",
		Title:  "agreement-seeking: gap consent and negotiated evacuation",
		Paper:  "Sec. IV-A (agreement-seeking)",
		Header: []string{"probe", "outcome", "concerted", "final_state"},
	}
	horizon := 4 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}

	// (a) consent granted.
	{
		rig, err := scenario.NewHighway(scenario.HighwayConfig{
			NCars: 5, Policy: scenario.PolicyAgreementSeeking, Seed: opt.Seed})
		if err != nil {
			panic(err)
		}
		rig.Injector.MustSchedule(rig.PerceptionFault(30*time.Second, 15, true))
		res := rig.Run(horizon)
		t.AddRow("(a) gap granted",
			"MRM proceeds after consent: "+rig.Ego.MRMReason(),
			yesno(res.Log.Count(sim.EventMRMConcerted) > 0),
			"ego in "+rig.Ego.CurrentMRC().ID)
	}

	// (a') consent impossible: peers' radios are down.
	{
		rig, err := scenario.NewHighway(scenario.HighwayConfig{
			NCars: 5, Policy: scenario.PolicyAgreementSeeking, Seed: opt.Seed})
		if err != nil {
			panic(err)
		}
		for _, c := range rig.All() {
			if c != rig.Ego {
				rig.Net.SetNodeDown(c.ID(), true)
			}
		}
		rig.Injector.MustSchedule(rig.PerceptionFault(30*time.Second, 15, true))
		rig.Run(horizon)
		t.AddRow("(a') no consent",
			"fallback after timeout: "+rig.Ego.MRMReason(),
			"no",
			"ego in "+rig.Ego.CurrentMRC().ID)
	}

	// (b) mine fire: negotiated evacuation (global MRC). The negotiated
	// order serializes the MRMs, so the horizon must cover six
	// back-to-back planned transits, not one.
	{
		evacHorizon := 5 * time.Minute
		if opt.Quick {
			evacHorizon = 3 * time.Minute
		}
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2, Policy: scenario.PolicyAgreementSeeking, Seed: opt.Seed})
		rig.Run(20 * time.Second)
		env := rig.Engine.Env()
		for _, pol := range rig.Policies {
			if ag, ok := pol.(*coop.AgreementSeeking); ok {
				ag.DeclareEvacuation(env)
				break
			}
		}
		for _, d := range rig.Diggers {
			d.TriggerMRMTo(env, "parking", "mine fire evacuation")
		}
		rig.Run(evacHorizon)
		order := ""
		stopped := 0
		for _, ev := range rig.Engine.Env().Log.ByKind(sim.EventMRCReached) {
			if order != "" {
				order += ","
			}
			order += ev.Subject
			stopped++
		}
		t.AddRow("(b) mine fire",
			fmt.Sprintf("negotiated order, %d constituents evacuated", stopped),
			"yes",
			"MRC order: "+order)
	}
	return t
}

// RunE9 reproduces the Sec. IV-A prescriptive examples: a directing
// entity orders one machine into a pocket so a larger one can pass
// (local MRC), and a road authority closes a flooded area by ordering
// everyone to a safe stop (global MRC). A non-compliant vehicle goes
// to its own MRC instead.
func RunE9(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E9",
		Title:  "prescriptive: pocket order and flood shutdown",
		Paper:  "Sec. IV-A (prescriptive)",
		Header: []string{"probe", "scope", "stopped", "others_operational", "outcome"},
	}
	horizon := 4 * time.Minute
	if opt.Quick {
		horizon = 2 * time.Minute
	}

	// (a) local: order truck1_1 into the pocket.
	{
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2, Policy: scenario.PolicyPrescriptive, Seed: opt.Seed})
		rig.Run(15 * time.Second)
		rig.Authority.CommandMRC(rig.Engine.Env(), "truck1_1", "pocket", "large machine needs passage")
		rig.Run(horizon)
		others := 0
		for _, c := range rig.Trucks[1:] {
			if c.Operational() {
				others++
			}
		}
		t.AddRow("(a) pocket order", "local",
			yesno(rig.Trucks[0].InMRC()),
			fmt.Sprintf("%d/%d", others, len(rig.Trucks)-1),
			"truck1_1 in "+rig.Trucks[0].CurrentMRC().ID)
	}

	// (a') non-compliance: steering failed, pocket unreachable.
	{
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 1, Policy: scenario.PolicyPrescriptive, Seed: opt.Seed})
		rig.Run(15 * time.Second)
		rig.Trucks[0].ApplyFault(fault.Fault{ID: "steer", Target: rig.Trucks[0].ID(),
			Kind: fault.KindSteering, Severity: 1, Permanent: true})
		rig.Authority.CommandMRC(rig.Engine.Env(), rig.Trucks[0].ID(), "pocket", "clear the tunnel")
		rig.Run(horizon)
		t.AddRow("(a') cannot comply", "local",
			yesno(rig.Trucks[0].InMRC()), "-",
			"own MRC instead: "+rig.Trucks[0].CurrentMRC().ID)
	}

	// (b) global: flooding closes the site.
	{
		rig := mustQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2, Policy: scenario.PolicyPrescriptive, Seed: opt.Seed})
		rig.Run(15 * time.Second)
		env := rig.Engine.Env()
		rig.Authority.CommandAllMRC(env, "parking", "flooding")
		for _, d := range rig.Diggers {
			d.TriggerMRMTo(env, "parking", "flooding")
		}
		rig.Run(horizon)
		stopped := 0
		for _, c := range rig.All() {
			if c.InMRC() {
				stopped++
			}
		}
		t.AddRow("(b) flood order", "global",
			fmt.Sprintf("%d/%d", stopped, len(rig.All())), "0",
			"all parked at the designated area")
	}
	return t
}
