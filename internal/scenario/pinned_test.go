package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/world"
)

// Byte-level pins for every rig constructor. Each case builds one rig,
// runs it for a fixed horizon and hashes runDigest (event log, report
// and the rig's work and traffic counters). A change to registration
// order, hook order, probe wiring or fault scheduling shows up as a
// digest mismatch here; update a pin only for an intended output
// change, and say why.
var rigPins = map[string]string{
	"quarry":  "872328f06d9622d83891ab9dd8679df23c4647f299eb92985a5f3674b7de5a91",
	"harbour": "ed955be207073845706a9fcbe1943da8d4f7f77f324c0c22638c8b019a485623",
	"highway": "db89d54c3af258a396ada07cfd5526094979c85486000f56e3673c37cac24322",
	"platoon": "02f66e0d30c7735dc194a5d4ecb72535e5a5ead83f9db0f8288d2dd4571c7faf",
	"custom":  "370feab0c90abbd508b113f29d9e1c3bf88b20b00c0ae3200b53d731fa790b3b",
}

func TestRigOutputsPinned(t *testing.T) {
	cases := map[string]func(t *testing.T) string{
		"quarry": func(t *testing.T) string {
			rig, err := NewQuarry(QuarryConfig{
				Policy: PolicyCoordinated, Seed: 4,
				Faults: []fault.Fault{{ID: "t", Target: "truck1_1", Kind: fault.KindSensor,
					Severity: 1, Permanent: true, At: 45 * time.Second}},
			})
			if err != nil {
				t.Fatal(err)
			}
			// The crew's recoveries put interventions into the report.
			rig.Engine.MustRegister(NewRepairCrew("crew", 20*time.Second, rig.All()...))
			return quarryDigest(t, rig, 90*time.Second)
		},
		"harbour": func(t *testing.T) string {
			rig, err := NewHarbour(HarbourConfig{
				Forklifts: 3, TwoLevel: true, Seed: 2,
				Weather: world.MustWeatherSchedule(
					world.WeatherChange{At: 30 * time.Second, Condition: world.Rain, TemperatureC: 2}),
				Faults: []fault.Fault{{ID: "slip", Target: "forklift2", Kind: fault.KindBrake,
					Severity: 0.5, Permanent: true, At: 45 * time.Second}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res := rig.Run(90 * time.Second)
			return runDigest(t, res.Log, res.Report,
				fmt.Sprintf("delivered=%v level=%d", rig.Delivered(), rig.Supervisor.Level()))
		},
		"highway": func(t *testing.T) string {
			rig, err := NewHighway(HighwayConfig{
				NCars: 5, Policy: PolicyAgreementSeeking, Seed: 3, Loss: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rig.Injector.Schedule(rig.PerceptionFault(15*time.Second, 15, true)); err != nil {
				t.Fatal(err)
			}
			res := rig.Run(90 * time.Second)
			sent, dropped := rig.Net.Stats()
			return runDigest(t, res.Log, res.Report,
				fmt.Sprintf("progress=%v sent=%d dropped=%d", rig.Progress(), sent, dropped))
		},
		"platoon": func(t *testing.T) string {
			rig, err := NewPlatoon(PlatoonConfig{
				Members: 4, Seed: 5,
				Faults: []fault.Fault{
					{ID: "radar", Target: "member1", Kind: fault.KindSensor,
						Detail: "long_range_radar", Severity: 1, Permanent: true, At: 20 * time.Second},
					{ID: "cam", Target: "member1", Kind: fault.KindSensor,
						Detail: "camera", Severity: 1, Permanent: true, At: 20 * time.Second},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res := rig.Run(60 * time.Second)
			return runDigest(t, res.Log, res.Report,
				fmt.Sprintf("speed=%v elections=%d", rig.Platoon.MeanSpeed(), rig.Platoon.Elections()))
		},
		"custom": func(t *testing.T) string {
			f, err := os.Open(filepath.Join("..", "..", "examples", "custom", "site.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rig, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			res := rig.Run(90 * time.Second)
			sent, dropped := rig.Net.Stats()
			return runDigest(t, res.Log, res.Report,
				fmt.Sprintf("delivered=%v sent=%d dropped=%d", rig.Delivered(), sent, dropped))
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			sum := sha256.Sum256([]byte(run(t)))
			if got := hex.EncodeToString(sum[:]); got != rigPins[name] {
				t.Errorf("%s rig output digest = %s, pinned %s", name, got, rigPins[name])
			}
		})
	}
}
