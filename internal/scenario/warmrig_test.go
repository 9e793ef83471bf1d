package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/sim"
)

// Warm-rig differential: a quarry rig Reset to seed S must produce
// output byte-identical to a rig freshly constructed at seed S — same
// event stream, same report, same delivered work, same network
// traffic. This is the oracle the reset lifecycle answers to; the
// warm campaign path (AcquireQuarry) reduces to it.

// runDigest runs the rig for the horizon and renders everything
// observable into one byte string: the full event log as JSON, the
// metrics report as JSON, and the network send/drop counters. Any
// divergence between a fresh and a reset rig shows up here.
func runDigest(t *testing.T, log *sim.EventLog, report any, extra string) string {
	t.Helper()
	var b strings.Builder
	if err := log.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rj)
	b.WriteString(extra)
	return b.String()
}

func quarryDigest(t *testing.T, r *QuarryRig, horizon time.Duration) string {
	t.Helper()
	res := r.Run(horizon)
	sent, dropped := r.Net.Stats()
	return runDigest(t, res.Log, res.Report,
		fmt.Sprintf("delivered=%v sent=%d dropped=%d", r.Delivered(), sent, dropped))
}

type quarryWarmCase struct {
	cfg QuarryConfig
	// seedSensitive cases draw visibly from the seeded RNG (network
	// jitter/loss), so runs at different seeds must differ — proving
	// the differential has the power to catch seed leakage. The
	// default deterministic network makes output seed-invariant, so
	// that case skips the power guard.
	seedSensitive bool
}

// quarryWarmCases samples the quarry configuration space: every layer
// wire() touches has at least one case exercising it (haul agents,
// each policy family's wiring shape, fault schedules, chaos network
// configs, the A2/A3 ablation knobs).
func quarryWarmCases() map[string]quarryWarmCase {
	// Jitter wide enough to move deliveries across tick boundaries and
	// a little loss: both draw from the seeded network RNG, making the
	// run's output an observable function of the seed.
	jitter := &comm.NetConfig{
		Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.05,
	}
	chaos := &comm.NetConfig{
		Latency: 40 * time.Millisecond, Jitter: 25 * time.Millisecond,
		LossProb: 0.08, ReorderProb: 0.2, ReorderWindow: 3, DupProb: 0.03,
	}
	f := []fault.Fault{
		{ID: "f1", Target: "truck1_1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 10 * time.Second},
		{ID: "f2", Target: "digger1", Kind: fault.KindComm,
			Severity: 1, At: 20 * time.Second, ClearAt: 35 * time.Second},
	}
	return map[string]quarryWarmCase{
		"defaultnet": {cfg: QuarryConfig{Policy: PolicyCoordinated, Faults: f}},
		// No power guard for baseline: the individual-AV class sends no
		// policy traffic, so nothing observable draws from the RNG.
		"baseline":     {cfg: QuarryConfig{Policy: PolicyBaseline, Net: jitter, Faults: f}},
		"coordinated":  {cfg: QuarryConfig{Policy: PolicyCoordinated, Pairs: 3, TrucksPerPair: 2, Net: jitter, Faults: f}, seedSensitive: true},
		"prescriptive": {cfg: QuarryConfig{Policy: PolicyPrescriptive, Net: jitter, Faults: f}, seedSensitive: true},
		"orchestrated": {cfg: QuarryConfig{Policy: PolicyOrchestrated, Net: jitter, Faults: f}, seedSensitive: true},
		"chaos":        {cfg: QuarryConfig{Policy: PolicyStatusSharing, Net: chaos, Faults: f}, seedSensitive: true},
		"ablationknobs": {cfg: QuarryConfig{Policy: PolicyCoordinated, Pairs: 3, TrucksPerPair: 2, BeaconPeriod: 2 * time.Second,
			Patience: 4 * time.Second, Net: jitter, Faults: f}, seedSensitive: true},
	}
}

func TestWarmRigQuarryResetMatchesFresh(t *testing.T) {
	const horizon = 45 * time.Second
	for name, tc := range quarryWarmCases() {
		cfg := tc.cfg
		t.Run(name, func(t *testing.T) {
			// Fresh rigs at seeds 7 and 11.
			cfg7 := cfg
			cfg7.Seed = 7
			fresh7, err := NewQuarry(cfg7)
			if err != nil {
				t.Fatal(err)
			}
			want7 := quarryDigest(t, fresh7, horizon)
			cfg11 := cfg
			cfg11.Seed = 11
			fresh11, err := NewQuarry(cfg11)
			if err != nil {
				t.Fatal(err)
			}
			want11 := quarryDigest(t, fresh11, horizon)
			if tc.seedSensitive && want7 == want11 {
				t.Fatal("seeds 7 and 11 produced identical output — differential has no power")
			}

			// One rig chained through reset: 11 → reset 7 → reset 11.
			warm, err := NewQuarry(cfg11)
			if err != nil {
				t.Fatal(err)
			}
			if got := quarryDigest(t, warm, horizon); got != want11 {
				t.Fatal("same construction diverged from itself — rig is nondeterministic")
			}
			if err := warm.Reset(7); err != nil {
				t.Fatal(err)
			}
			if got := quarryDigest(t, warm, horizon); got != want7 {
				t.Errorf("reset(7) diverged from fresh seed-7 run (%d vs %d bytes)", len(got), len(want7))
			}
			if err := warm.Reset(11); err != nil {
				t.Fatal(err)
			}
			if got := quarryDigest(t, warm, horizon); got != want11 {
				t.Errorf("second reset(11) diverged from fresh seed-11 run (%d vs %d bytes)", len(got), len(want11))
			}
		})
	}
}

// A mid-run edge block in seed N must not leak cached avoid-paths or
// blocked state into seed N+1: after Reset, the world rewinds to the
// construction baseline and the route cache is invalidated, so the
// next run is byte-identical to a cold rig (ISSUE 10 satellite 6).
func TestWarmRigQuarryBlockedEdgeDoesNotLeak(t *testing.T) {
	const horizon = 30 * time.Second
	cfg := QuarryConfig{Policy: PolicyCoordinated, Seed: 5}

	cold, err := NewQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := quarryDigest(t, cold, horizon)

	warm, err := NewQuarry(QuarryConfig{Policy: PolicyCoordinated, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := warm.World.Graph()
	// Force route traffic through the detour, warming path-cache
	// entries computed under the blocked state.
	if err := g.BlockEdge("load", "mid"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath("load", "dep"); err != nil {
		t.Fatal(err)
	}
	warm.Run(horizon)
	if err := warm.Reset(5); err != nil {
		t.Fatal(err)
	}
	if got := quarryDigest(t, warm, horizon); got != want {
		t.Error("seed with blocked edge leaked into the next seed's run")
	}
}

func TestQuarryPoolReusesRigs(t *testing.T) {
	cfg := QuarryConfig{Policy: PolicyCoordinated, Seed: 21,
		Net: &comm.NetConfig{Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.05}}
	const horizon = 30 * time.Second

	fresh, err := NewQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := quarryDigest(t, fresh, horizon)

	a, err := AcquireQuarry(QuarryConfig{Policy: PolicyCoordinated, Seed: 3,
		Net: &comm.NetConfig{Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	quarryDigest(t, a, horizon)
	a.Release()

	// Same config modulo seed (and a distinct but equal Net pointer):
	// must come back as the same rig, warm.
	b, err := AcquireQuarry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Error("pool did not reuse the released rig for an equivalent config")
	}
	if got := quarryDigest(t, b, horizon); got != want {
		t.Error("pooled warm rig diverged from fresh construction")
	}
	b.Release()

	// A different configuration must not collide with the parked rig.
	c, err := AcquireQuarry(QuarryConfig{Policy: PolicyBaseline, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if c == b {
		t.Error("pool key collision: different config reused an incompatible rig")
	}
	c.Release()
}
