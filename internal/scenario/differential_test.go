package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// The fleet's broad phase must be invisible in every rig output: on
// the same run, a second collector over the same probes but fed every
// pair must report exactly what the rig's collector reports, and log
// the same collisions and near misses. This is the rig-level half of
// the differential guarantee; the metrics package property-tests the
// collector in isolation.

// allPairs is the oracle broad phase: every pair of n probes.
func allPairs(n int) func(dst [][2]int) [][2]int {
	return func(dst [][2]int) [][2]int {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dst = append(dst, [2]int{i, j})
			}
		}
		return dst
	}
}

// allPairsCollector returns a collector over the fleet's standard
// probes fed every pair.
func allPairsCollector(f *Fleet) *metrics.Collector {
	probes := make([]metrics.Probe, len(f.cs))
	for i, c := range f.cs {
		probes[i] = probeFor(c, f.World)
	}
	return metrics.NewCollector(allPairs(len(probes)), probes...)
}

// attachOracle adds an all-pairs collector as an extra post-hook, after
// the rig's own. It logs to an event log of its own, so the run stays
// what it is without it.
func attachOracle(f *Fleet) (*metrics.Collector, *sim.EventLog) {
	col := allPairsCollector(f)
	env := &sim.Env{Clock: f.Engine.Env().Clock, Log: sim.NewEventLog()}
	f.Engine.AddPostHook(func(*sim.Env) { col.Sample(env) })
	return col, env.Log
}

// proximityEvents returns the log's collision and near-miss events.
func proximityEvents(log *sim.EventLog) []sim.Event {
	var out []sim.Event
	for _, e := range log.Events() {
		if e.Kind == sim.EventCollision || e.Kind == sim.EventNearMiss {
			out = append(out, e)
		}
	}
	return out
}

func TestRigCollectorMatchesAllPairs(t *testing.T) {
	cases := []struct {
		name    string
		build   func(t *testing.T) *Fleet
		horizon time.Duration
	}{
		{"quarry", func(t *testing.T) *Fleet {
			rig, err := NewQuarry(QuarryConfig{
				Pairs: 3, TrucksPerPair: 2,
				Policy: PolicyOrchestrated,
				Seed:   11,
				Faults: []fault.Fault{
					{ID: "f1", Target: "truck1_1", Kind: fault.KindSensor,
						Severity: 1, Permanent: true, At: 30 * time.Second},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return &rig.Fleet
		}, 3 * time.Minute},
		{"harbour", func(t *testing.T) *Fleet {
			rig, err := NewHarbour(HarbourConfig{
				Forklifts: 4, Seed: 5, TwoLevel: true,
				Weather: world.MustWeatherSchedule(
					world.WeatherChange{At: 60 * time.Second, Condition: world.Rain, TemperatureC: 2}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return &rig.Fleet
		}, 3 * time.Minute},
		{"highway", func(t *testing.T) *Fleet {
			rig, err := NewHighway(HighwayConfig{NCars: 5, Policy: PolicyAgreementSeeking, Seed: 1, Loss: 0.05,
				Faults: []fault.Fault{{ID: "s", Target: "car1", Kind: fault.KindSteering,
					Severity: 1, Permanent: true, At: 20 * time.Second}}})
			if err != nil {
				t.Fatal(err)
			}
			// car2 follows the stopping ego seeing 15 m ahead.
			rig.Injector.MustSchedule(fault.Fault{ID: "p", Target: "car2", Kind: fault.KindSensor,
				Severity: 1 - 15/rig.All()[1].Body().Spec().SensorRange, Permanent: true, At: 10 * time.Second})
			return &rig.Fleet
		}, 90 * time.Second},
		{"platoon", func(t *testing.T) *Fleet {
			rig, err := NewPlatoon(PlatoonConfig{Members: 5, Seed: 2,
				Faults: []fault.Fault{{ID: "b", Target: "member2", Kind: fault.KindBrake,
					Severity: 1, Permanent: true, At: 20 * time.Second}}})
			if err != nil {
				t.Fatal(err)
			}
			return &rig.Fleet
		}, 90 * time.Second},
		{"custom-site", func(t *testing.T) *Fleet {
			f, err := os.Open(filepath.Join("..", "..", "examples", "custom", "site.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rig, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			return &rig.Fleet
		}, 3 * time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build(t)
			oracle, oracleLog := attachOracle(f)
			res := f.Run(tc.horizon)
			want := oracle.Report()
			if !reflect.DeepEqual(res.Report, want) {
				t.Errorf("rig collector reports\n%+v\nall pairs report\n%+v", res.Report, want)
			}
			got, wantEv := proximityEvents(res.Log), proximityEvents(oracleLog)
			if !reflect.DeepEqual(got, wantEv) {
				t.Errorf("rig collector logged %d proximity events, all pairs %d, or they differ", len(got), len(wantEv))
			}
			t.Logf("%d collisions, %d near misses, min separation %.3f m",
				want.Collisions, want.NearMisses, want.MinSeparation)
			if want.MinSeparation < 0 || want.MinSeparation >= metrics.NearMissDist {
				t.Errorf("min separation %v: no pair came within near-miss range, so the run proves nothing", want.MinSeparation)
			}
		})
	}
}

// benchProximity measures one collector pass over a 10-pair quarry
// fleet mid-incident — the per-tick proximity hot path — fed either
// every pair or the fleet's broad phase. The rig reproduces the E16
// baseline arm: a blind truck stranded mid-tunnel with the rest of the
// fleet queued behind it, so every constituent is stopped in active
// space and risk-relevant (the regime where proximity scoring actually
// runs; ticks with no relevant probe skip the pass entirely on both
// paths). Each op marks the fleet moved, as a tick does, so the broad
// phase rebuilds the fleet's index.
func benchProximity(b *testing.B, all bool) {
	b.Helper()
	rig, err := NewQuarry(QuarryConfig{Pairs: 10, TrucksPerPair: 1, Policy: PolicyBaseline, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	victim := rig.Trucks[0]
	victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
		Kind: fault.KindSensor, Severity: 1, Permanent: true})
	rig.Run(90 * time.Second)
	col := rig.Collector
	if all {
		col = allPairsCollector(&rig.Fleet)
	}
	env := rig.Engine.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.moves++
		col.Sample(env)
	}
}

// BenchmarkProximityBrute10PairQuarry samples every pair.
func BenchmarkProximityBrute10PairQuarry(b *testing.B) { benchProximity(b, true) }

// BenchmarkProximityIndexed10PairQuarry samples only the fleet's
// broad-phase candidate pairs.
func BenchmarkProximityIndexed10PairQuarry(b *testing.B) { benchProximity(b, false) }
