package coopmrm

// One benchmark per paper artefact (table/figure/narrative), as
// indexed in DESIGN.md. Each iteration regenerates the corresponding
// experiment in quick mode; run with
//
//	go test -bench=. -benchmem .
//
// The absolute wall-clock numbers measure the simulator, not the
// authors' vehicles; EXPERIMENTS.md records the reproduced shapes.

import (
	"runtime"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(Options{Quick: true, Seed: int64(i + 1)})
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1Fig1Hierarchy regenerates Fig. 1a/1b (individual MRM/MRC
// hierarchy with mid-MRM fallback).
func BenchmarkE1Fig1Hierarchy(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Fig2Granularity regenerates Fig. 2 (granularity vs
// productivity vs safety-case size).
func BenchmarkE2Fig2Granularity(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Table1Matrix regenerates Table I (MRM/MRC capability per
// class).
func BenchmarkE3Table1Matrix(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Degradation regenerates the Sec. III-B cases (i)-(iv).
func BenchmarkE4Degradation(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5HarbourEscalation regenerates the Sec. III-C MRC1->MRC2
// narrative.
func BenchmarkE5HarbourEscalation(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6StatusSharing regenerates the Sec. IV-A status-sharing
// mine example.
func BenchmarkE6StatusSharing(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7IntentSharing regenerates the Sec. IV-A intent-sharing
// freeway example.
func BenchmarkE7IntentSharing(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8AgreementSeeking regenerates the Sec. IV-A
// agreement-seeking examples (gap consent, evacuation).
func BenchmarkE8AgreementSeeking(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Prescriptive regenerates the Sec. IV-A prescriptive
// examples (pocket order, flood shutdown).
func BenchmarkE9Prescriptive(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Coordinated regenerates the Sec. IV-B coordinated
// examples.
func BenchmarkE10Coordinated(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Choreographed regenerates the Sec. IV-B choreographed
// example (check-in deadlines).
func BenchmarkE11Choreographed(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Orchestrated regenerates the Sec. IV-B orchestrated
// examples (TMS rerouting, global MRC styles).
func BenchmarkE12Orchestrated(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Concerted regenerates the Definition 3 invariant check.
func BenchmarkE13Concerted(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Baseline regenerates the class-vs-baseline comparison.
func BenchmarkE14Baseline(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15AutoRecovery regenerates the future-work autonomous
// recovery evaluation.
func BenchmarkE15AutoRecovery(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16ScaleSweep regenerates the fleet-size scale sweep.
func BenchmarkE16ScaleSweep(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17Chaos regenerates the V2X chaos campaign.
func BenchmarkE17Chaos(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18MegaFleet regenerates the mega-fleet sweep (quick
// sizes).
func BenchmarkE18MegaFleet(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19TransitionRisk regenerates the transition-risk grid
// (class × fault, seed-swept, planner-backed MRMs).
func BenchmarkE19TransitionRisk(b *testing.B) { benchExperiment(b, "E19") }

// incidentRig builds the tick benchmarks' quarry mid-incident: a blind
// truck stranded mid-tunnel at (150, 0), with the fleet queueing
// behind it for warm of simulated time.
func incidentRig(b *testing.B, pairs int, policy scenario.PolicyKind, warm time.Duration) *scenario.QuarryRig {
	b.Helper()
	rig, err := scenario.NewQuarry(scenario.QuarryConfig{
		Pairs: pairs, TrucksPerPair: 1, Policy: policy, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	victim := rig.Trucks[0]
	victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
		Kind: fault.KindSensor, Severity: 1, Permanent: true})
	rig.Run(warm)
	return rig
}

// tickWindow is the number of ticks one op of a tick benchmark times.
const tickWindow = 100

// benchTickWindow times the same window of ticks in every op: each op
// builds and warms a fresh incident rig with the timer stopped, then
// runs tickWindow ticks. The per-op time therefore does not depend on
// b.N; ns/tick is the cost of one tick in the window.
func benchTickWindow(b *testing.B, pairs int, policy scenario.PolicyKind, warm time.Duration) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rig := incidentRig(b, pairs, policy, warm)
		b.StartTimer()
		for t := 0; t < tickWindow; t++ {
			rig.Engine.RunTick()
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N*tickWindow), "ns/tick")
}

// BenchmarkMegaFleetTickSeq measures full engine ticks on a 200-pair
// quarry (400 constituents plus agents), simulated seconds 30 to 40 of
// the incident.
func BenchmarkMegaFleetTickSeq(b *testing.B) {
	benchTickWindow(b, 200, scenario.PolicyBaseline, 30*time.Second)
}

// benchProximity measures one metrics.Collector.Sample pass over a
// 10-pair quarry fleet mid-incident — the per-tick proximity hot path
// — with either the brute-force O(n²) scorer or the uniform-grid
// broad-phase. The rig reproduces the E16 baseline arm: a blind truck
// stranded mid-tunnel with the rest of the fleet queued behind it, so
// every constituent is stopped in active space and risk-relevant (the
// regime where proximity scoring actually runs; ticks with no
// relevant probe skip the pass entirely on both paths). The ratio
// between the two benchmarks is the index speedup quoted in
// README.md.
func benchProximity(b *testing.B, brute bool) {
	b.Helper()
	rig := incidentRig(b, 10, scenario.PolicyBaseline, 90*time.Second)
	rig.Collector.UseBruteForce = brute
	env := rig.Engine.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Collector.Sample(env)
	}
}

// BenchmarkProximityBrute10PairQuarry samples every pair (the
// pre-index behaviour).
func BenchmarkProximityBrute10PairQuarry(b *testing.B) { benchProximity(b, true) }

// BenchmarkProximityIndexed10PairQuarry samples only broad-phase
// candidate pairs.
func BenchmarkProximityIndexed10PairQuarry(b *testing.B) { benchProximity(b, false) }

// BenchmarkE16QuarryTick measures full engine ticks — comm delivery,
// entity steps, fault injection, metrics sampling — on the 10-pair
// E16 quarry rig with the status-sharing policy beaconing V2X traffic,
// simulated seconds 90 to 100 of the incident. This is the whole-tick
// companion to the per-subsystem benchmarks (BenchmarkProximity*,
// BenchmarkNetworkTick*, BenchmarkEventLogQuery*): run with -benchmem,
// its allocs/op is the allocation audit of the tick window.
func BenchmarkE16QuarryTick(b *testing.B) {
	benchTickWindow(b, 10, scenario.PolicyStatusSharing, 90*time.Second)
}

func benchRunSet(b *testing.B, workers int) {
	b.Helper()
	all := append(AllExperiments(), AllAblations()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := RunSet(all, Options{Quick: true, Seed: int64(i + 1)}, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != len(all) {
			b.Fatalf("tables = %d, want %d", len(tables), len(all))
		}
	}
}

// BenchmarkAllSerial runs the full E1..E17 + A1..A5 index through the
// worker pool with one worker — the serial baseline.
func BenchmarkAllSerial(b *testing.B) { benchRunSet(b, 1) }

// BenchmarkAllParallel fans the same index across one worker per CPU;
// the ratio to BenchmarkAllSerial is the harness speedup.
func BenchmarkAllParallel(b *testing.B) { benchRunSet(b, runtime.NumCPU()) }

// benchSweepMemory runs a fixed-size synthetic seed sweep through the
// streaming campaign path (per-cell Welford accumulators, memory
// independent of seed count) and reports the peak live heap observed
// mid-sweep. The two benchmarks are the memory claim behind
// SweepSeedsStream: peak-live-B stays flat as seeds grow 4×. The peak
// is sampled inside the arm's Run after a forced GC, so it measures
// retention, not allocation churn (B/op counts the discarded per-seed
// tables and scales with seeds).
func benchSweepMemory(b *testing.B, seeds int) {
	b.Helper()
	var peak uint64
	calls := 0
	e := benchSyntheticArm(func() {
		// Sampling with a forced GC is expensive; every 500 seeds is
		// plenty.
		if calls++; calls%500 != 0 {
			return
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	})
	list := make([]int64, seeds)
	for i := range list {
		list[i] = int64(i + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := SweepSeedsStream(e, Options{Quick: true}, list, 1, CampaignConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("sweep produced no rows")
		}
	}
	b.ReportMetric(float64(peak), "peak-live-B")
}

// benchSyntheticArm mirrors the sweep_stream_test fixture: a cheap
// deterministic 6×5 table whose numeric cells vary per seed. onRun is
// invoked at the top of every per-seed Run (the memory sampling hook).
func benchSyntheticArm(onRun func()) Experiment {
	return Experiment{
		ID:    "SYNB",
		Title: "synthetic bench arm",
		Run: func(opt Options) Table {
			onRun()
			tab := Table{ID: "SYNB", Title: "synthetic bench arm",
				Header: []string{"arm", "a", "b", "c", "d"}}
			for r := 0; r < 6; r++ {
				v := float64(opt.Seed%97) + float64(r)
				tab.AddRow(
					"arm"+string(rune('a'+r)),
					time.Duration(v*float64(time.Millisecond)).String(),
					"42",
					"50%",
					"3.5",
				)
			}
			return tab
		},
	}
}

// BenchmarkSweepStream1kSeeds folds 1000 seeds into per-cell
// accumulators — O(rows×cols) retention.
func BenchmarkSweepStream1kSeeds(b *testing.B) { benchSweepMemory(b, 1000) }

// BenchmarkSweepStream4kSeeds is the flat-memory data point:
// peak-live-B within noise of the 1k run despite 4× the seeds.
func BenchmarkSweepStream4kSeeds(b *testing.B) { benchSweepMemory(b, 4000) }
