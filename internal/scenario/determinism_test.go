package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
)

// chaosQuarry is a 2×2 quarry on a lossy, jittery channel with a
// truck sensor fault at 30 s: enough dropped and reordered beacons
// that a policy sending or emitting in map order leaves a different
// log on some runs.
func chaosQuarry(p PolicyKind, g core.Granularity, seed int64) QuarryConfig {
	return QuarryConfig{
		Pairs: 2, TrucksPerPair: 2, Policy: p, Granularity: g, Concerted: true, Seed: seed,
		Net: &comm.NetConfig{
			Latency: 50 * time.Millisecond, Jitter: 80 * time.Millisecond, LossProb: 0.25,
		},
		Faults: []fault.Fault{{ID: "s", Target: "truck1_1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 30 * time.Second}},
	}
}

// TestSameSeedSameBytes runs every policy eight times on one seed and
// requires one digest. Go randomises map iteration order on every
// range, so a map-order bug shows only across repeated runs, never in
// a single one.
func TestSameSeedSameBytes(t *testing.T) {
	type tc struct {
		name string
		cfg  QuarryConfig
	}
	var cases []tc
	for _, p := range AllPolicies() {
		cases = append(cases, tc{p.String(), chaosQuarry(p, 0, 5)})
	}
	cases = append(cases, tc{"orchestrated_global",
		chaosQuarry(PolicyOrchestrated, core.GranularityGlobal, 5)})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seen := make(map[string]int)
			for i := 0; i < 8; i++ {
				rig, err := NewQuarry(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(quarryDigest(t, rig, 90*time.Second)))
				seen[hex.EncodeToString(sum[:8])]++
			}
			if len(seen) != 1 {
				t.Errorf("%d distinct digests over 8 runs of one seed: %v", len(seen), seen)
			}
		})
	}
}
