package coopmrm

import (
	"fmt"
	"time"

	"coopmrm/internal/artifact"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
)

// e18CoopCap bounds the cooperative (status-sharing) arm of E18: a
// beacon round is senders × fleet broadcast envelopes, so at 2,000
// pairs V2X traffic — not the tick loop — would dominate the run and
// the measurement. Up to this size the cooperative arm runs alongside
// the comm-free baseline; above it only the baseline scales on.
const e18CoopCap = 200

// RunE18 is the mega-fleet scale sweep: the E16 stranded-truck
// incident (truck1_1 blind mid-tunnel at t=0) at 50 to 2,000 quarry
// pairs, one run per row.
//
// Tick throughput per row goes to bench.json (details entries), NOT
// into the table: wall-clock numbers are machine-dependent and the
// artifact contract keeps bundle bytes a function of experiment + seed
// only.
func RunE18(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E18",
		Title:  "mega-fleet scale: 50-2000 pairs",
		Paper:  "scale extension (infrastructure-level fleets)",
		Header: []string{"pairs", "constituents", "policy", "units_per_min", "near_misses"},
		Note:   "truck1_1 stranded blind mid-tunnel at t=0 (E16 staging); tick throughput per row is in bench.json details",
	}
	sizes := []int{50, 200, 500, 1000, 2000}
	horizon := 60 * time.Second
	if opt.Quick {
		sizes = []int{50, 200}
		horizon = 30 * time.Second
	}
	for _, pairs := range sizes {
		policies := []scenario.PolicyKind{scenario.PolicyBaseline}
		if pairs <= e18CoopCap {
			policies = append(policies, scenario.PolicyStatusSharing)
		}
		for _, p := range policies {
			a := runE18Arm(opt, pairs, p, horizon)
			t.AddRow(fmt.Sprintf("%d", pairs), fmt.Sprintf("%d", 2*pairs), p.String(),
				f2(a.delivered/horizon.Minutes()), fmt.Sprintf("%d", a.nearMisses))
		}
	}
	return t
}

// runE18Arm runs one E18 row, records its bundle and its tick
// throughput, and returns the table quantities.
func runE18Arm(opt Options, pairs int, policy scenario.PolicyKind, horizon time.Duration) e16Arm {
	rig := mustQuarry(scenario.QuarryConfig{
		Pairs: pairs, TrucksPerPair: 1,
		Policy: policy,
		Seed:   opt.Seed,
		// 5s beacons: at mega-fleet sizes the 1s default turns the run
		// into a broadcast benchmark; the reroute behaviour only needs
		// the blockage announced within a few seconds.
		BeaconPeriod: 5 * time.Second,
	})
	victim := rig.Trucks[0]
	victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
		Kind: fault.KindSensor, Severity: 1, Permanent: true})
	start := time.Now()
	res := rig.Run(horizon)
	wall := time.Since(start)
	id := fmt.Sprintf("pairs=%d/%s", pairs, policy)
	opt.Observe(id, res.Report, res.Log, rig.Net, rig.Injector)
	ticks := int64(horizon / (100 * time.Millisecond))
	opt.ObserveBench(artifact.BenchDetail{
		ID:          "E18/" + id,
		Entities:    rig.Engine.Len(),
		Ticks:       ticks,
		WallSeconds: wall.Seconds(),
		TicksPerSec: float64(ticks) / wall.Seconds(),
	})
	return e16Arm{delivered: rig.Delivered(), nearMisses: res.Report.NearMisses}
}
