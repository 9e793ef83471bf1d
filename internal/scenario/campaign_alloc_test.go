package scenario

import (
	"runtime"
	"testing"
	"time"

	"coopmrm/internal/fault"
)

// beaconAllocSlack is the allowance over one allocation per status
// beacon: a V2X tick's only steady-state allocation is the beacon's
// body, and a window may also grow a buffer or two.
const beaconAllocSlack = 5

// TestCampaignTickAllocs pins what the paper's campaign tick allocates
// once the faulted truck has parked. The rig is E19's 2-pair quarry
// with truck1_1 blinded at 30 s; from simulated second 40 the truck
// sits in MRC and 100 ticks are counted. The individual baseline
// allocates nothing: a parked truck's ODD is not evaluated, so its
// exit reasons are not formatted. The V2X classes allocate one body
// per status beacon and nothing per receiver.
func TestCampaignTickAllocs(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyBaseline, PolicyStatusSharing, PolicyCoordinated} {
		rig, err := NewQuarry(QuarryConfig{
			Pairs: 2, TrucksPerPair: 1, Policy: pol, Seed: 1,
			Faults: []fault.Fault{{
				ID: "e19", Target: "truck1_1", Kind: fault.KindSensor,
				Severity: 1, Permanent: true, At: 30 * time.Second,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.Engine.RunFor(40 * time.Second)
		if mode := rig.Trucks[0].Mode().String(); mode != "mrc" {
			t.Fatalf("%v: truck1_1 is in %s at 40 s, want mrc", pol, mode)
		}
		sent0, _ := rig.Net.Stats()
		allocs := tickAllocs(rig, 100)
		sent1, _ := rig.Net.Stats()
		if pol == PolicyBaseline {
			if allocs != 0 {
				t.Errorf("baseline: 100 ticks allocate %d objects, want 0", allocs)
			}
			continue
		}
		// Every message in the window is a status broadcast, which
		// counts one attempted delivery per other endpoint.
		peers := int64(len(rig.Net.Endpoints()) - 1)
		if peers < 1 || (sent1-sent0)%peers != 0 {
			t.Fatalf("%v: %d deliveries are not whole broadcasts to %d peers", pol, sent1-sent0, peers)
		}
		beacons := (sent1 - sent0) / peers
		t.Logf("%v: %d allocations over 100 ticks for %d beacons", pol, allocs, beacons)
		if beacons == 0 {
			t.Fatalf("%v: no beacons in the window: the count proves nothing", pol)
		}
		if allocs > uint64(beacons)+beaconAllocSlack {
			t.Errorf("%v: 100 ticks allocate %d objects for %d beacons, want at most %d",
				pol, allocs, beacons, beacons+beaconAllocSlack)
		}
	}
}

// tickAllocs counts the heap allocations of n engine ticks, on one P
// as testing.AllocsPerRun measures.
func tickAllocs(rig *QuarryRig, n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		rig.Engine.RunTick()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
