package coopmrm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"coopmrm/internal/artifact"
	"coopmrm/internal/scenario"
)

// RunE20 benchmarks campaign rig-cycling throughput: the same
// streaming seed sweep run twice, once constructing a fresh quarry
// rig per seed and once serving rigs from the warm-rig pool
// (Options.ReuseRigs), and asserts the two arms' aggregated tables
// are byte-identical — reuse is an operational knob, never a result
// knob. The per-seed horizon is intentionally short so rig cycling
// dominates the wall time; this measures how fast the engine can
// turn seeds over, not how fast it simulates (E18 owns that claim).
//
// The table is byte-deterministic: the digest column is a hash of
// each arm's folded campaign table. Wall-clock rates (seeds/sec per
// arm) are reported through bench.json details, like E18's
// ticks/sec — the warm-over-fresh claim lives there.
func RunE20(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E20",
		Title:  "campaign throughput: warm-rig pool vs fresh construction",
		Paper:  "perf extension (snapshot/reset rig reuse)",
		Header: []string{"arm", "seeds", "ticks_per_seed", "sent_per_seed", "campaign_digest", "identical_to_fresh"},
		Note:   "both arms stream the same seed sweep; the warm arm serves rigs from the snapshot/reset pool; seeds/sec per arm is in bench.json details",
	}
	n := 30000
	if opt.Quick {
		n = 10000
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = opt.Seed + int64(i)
	}
	inner := Experiment{
		ID:    "E20",
		Title: "campaign throughput cell",
		Paper: "perf extension (snapshot/reset rig reuse)",
		Run:   runE20Seed,
	}

	arms := []struct {
		label string
		reuse bool
	}{{"fresh", false}, {"warm", true}}
	tables := make([]Table, len(arms))
	for i, arm := range arms {
		// The sweep's fold runs bare; the bundle gets one full
		// observation pass below.
		armOpt := opt
		armOpt.ReuseRigs = arm.reuse
		// Collect before the timer starts: under the full suite the
		// earlier experiments' retained artifacts make a large live
		// heap, and whether a background mark phase lands inside an
		// arm would otherwise dominate run-to-run variance. Starting
		// each arm just-collected gives both arms the same GC state —
		// the bench-harness equivalent of ResetTimer after setup.
		runtime.GC()
		start := time.Now()
		tab, err := SweepSeedsStream(inner, armOpt, seeds, 1, CampaignConfig{})
		if err != nil {
			panic(err)
		}
		wall := time.Since(start)
		tables[i] = tab
		opt.ObserveBench(artifact.BenchDetail{
			ID:          "E20/" + arm.label,
			Entities:    4,
			Ticks:       int64(n) * int64(e20Ticks),
			WallSeconds: wall.Seconds(),
			Seeds:       n,
			SeedsPerSec: float64(n) / wall.Seconds(),
		})
		identical := "n/a"
		if i > 0 {
			identical = yesno(tab.CSV() == tables[0].CSV())
		}
		t.AddRow(arm.label, fmt.Sprintf("%d", n), fmt.Sprintf("%d", e20Ticks),
			tab.Cell(0, 2), tableDigest(tab), identical)
	}
	if opt.Artifacts != nil {
		runE20Seed(opt.WithSeed(seeds[0]))
	}
	return t
}

// e20Ticks is the per-seed horizon in ticks: a couple of ticks of
// nominal coordinated operation. Deliberately no faults — an MRM's
// trajectory scoring costs milliseconds and would swamp the
// rig-cycling cost this experiment isolates (E19 owns the faulted
// campaign) — and deliberately short: the claim under test is how
// fast the engine turns rigs over, so construction must dominate the
// horizon.
const e20Ticks = 2

// runE20Seed is the per-seed cell the campaign folds: one small
// coordinated quarry cycled through a short nominal horizon.
func runE20Seed(opt Options) Table {
	opt = opt.withDefaults()
	t := Table{
		ID:     "E20",
		Title:  "campaign throughput cell",
		Paper:  "perf extension (snapshot/reset rig reuse)",
		Header: []string{"cell", "events", "sent", "min_sep", "delivered"},
	}
	horizon := e20Ticks * 100 * time.Millisecond
	// The warm arm serves rigs from the pool. Release parks a pooled
	// rig for the next seed once its results have been read, because
	// the next acquisition truncates its event log in place; it is a
	// no-op for a fresh rig.
	acquire := scenario.NewQuarry
	if opt.ReuseRigs {
		acquire = scenario.AcquireQuarry
	}
	rig, err := acquire(scenario.QuarryConfig{
		Pairs: 2, TrucksPerPair: 1,
		Policy: scenario.PolicyCoordinated,
		Seed:   opt.Seed,
	})
	if err != nil {
		panic(err)
	}
	defer rig.Release()
	res := rig.Run(horizon)
	opt.Observe("cell", res.Report, res.Log, rig.Net, rig.Injector)
	sent, _ := rig.Net.Stats()
	t.AddRow("quarry",
		fmt.Sprintf("%d", res.Log.Len()),
		fmt.Sprintf("%d", sent),
		f2(res.Report.MinSeparation),
		f2(rig.Delivered()))
	return t
}

// tableDigest renders a short stable fingerprint of a table so two
// campaign arms can be compared in a byte-deterministic cell.
func tableDigest(t Table) string {
	sum := sha256.Sum256([]byte(t.CSV()))
	return hex.EncodeToString(sum[:6])
}
