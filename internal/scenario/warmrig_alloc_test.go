package scenario

import (
	"testing"
	"time"
)

// Steady-state allocation pins for the warm-rig lifecycle, in the
// event-log/network-heap AllocsPerRun idiom: the measured costs get a
// modest headroom, and the bounds sit well under what a regression to
// full reconstruction would cost, so "Reset quietly started rebuilding
// the world" fails loudly instead of only showing up in campaign wall
// time.
//
// Reset is not alloc-free by design: wire() rebuilds the genuinely
// per-seed layer every seed — ~100 allocations on the 2-pair
// coordinated quarry, mostly the haul agents, the policy stack, the
// fault injector and the dependency model. The rest of that layer
// reinitialises in place: constituent components (body, sensor suite,
// ODD monitor, degradation manager, fault map) through
// Constituent.Reinit, and the parked collector through its own
// Reinit. What Reset must never re-allocate is the seed-invariant
// chassis — world geometry, route graph, zone index, engine and
// network backbones — which is what separates it from NewQuarry
// (~350 allocations before the first tick, and an order of magnitude
// more bytes).
const (
	// maxResetAllocs bounds one Reset(seed) on a parked 2-pair
	// coordinated quarry (measured ≈100).
	maxResetAllocs = 120
	// maxWarmCycleAllocs bounds one full campaign cycle —
	// AcquireQuarry, a 5-tick run, Release — on the same rig
	// (measured ≈267; a fresh-construction cycle costs ≈520).
	maxWarmCycleAllocs = 310
)

func TestWarmRigResetAllocsSteadyState(t *testing.T) {
	rig, err := NewQuarry(QuarryConfig{Pairs: 2, TrucksPerPair: 1, Policy: PolicyCoordinated, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first resets grow reusable backing arrays to capacity.
	for i := 0; i < 5; i++ {
		if err := rig.Reset(int64(i + 2)); err != nil {
			t.Fatal(err)
		}
	}
	var seed int64 = 100
	allocs := testing.AllocsPerRun(50, func() {
		if err := rig.Reset(seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if allocs > maxResetAllocs {
		t.Errorf("Reset allocates %.0f objects per seed at steady state, want <= %d — is Reset rebuilding chassis state?",
			allocs, maxResetAllocs)
	}
}

func TestWarmRigCampaignCycleAllocsSteadyState(t *testing.T) {
	cfg := QuarryConfig{Pairs: 2, TrucksPerPair: 1, Policy: PolicyCoordinated, Seed: 1}
	cycle := func(seed int64) {
		c := cfg
		c.Seed = seed
		rig, err := AcquireQuarry(c)
		if err != nil {
			t.Fatal(err)
		}
		rig.Run(500 * time.Millisecond)
		rig.Release()
	}
	for i := 0; i < 5; i++ {
		cycle(int64(i + 1))
	}
	var seed int64 = 100
	allocs := testing.AllocsPerRun(50, func() {
		cycle(seed)
		seed++
	})
	if allocs > maxWarmCycleAllocs {
		t.Errorf("warm campaign cycle allocates %.0f objects per seed at steady state, want <= %d",
			allocs, maxWarmCycleAllocs)
	}
}
