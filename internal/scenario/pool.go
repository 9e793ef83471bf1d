package scenario

import (
	"fmt"
	"sync"

	"coopmrm/internal/comm"
)

// Rig pool: campaign sweeps build the same rig configuration at
// thousands of seeds, and construction — route graph, zone index,
// sensor suites, planner grids, RNG seeding — dominates short
// per-seed horizons. The pool parks finished rigs keyed by their
// seed-less configuration; AcquireQuarry resets a parked rig to the
// requested seed in O(mutable state) instead of building a new one.
// Reset output is byte-identical to fresh construction (the warm-rig
// differentials hold the quarry to that), so pooling is purely an
// operational knob: results cannot depend on it.
//
// The pool is a keyed LIFO free list. Under runner.MapStream at
// parallelism W, at most W rigs of a key are in flight, so the pool
// holds at most W parked rigs per key — per-worker rig affinity
// without threading worker identity through the runner.
var pool struct {
	sync.Mutex
	free map[string][]*QuarryRig
}

// poolKeyQuarry renders the seed-invariant part of a QuarryConfig:
// two configs map to the same key exactly when a rig built from one
// can be Reset to serve the other. Seed is zeroed (Reset's input);
// Net is dereferenced so equal channel models share a key regardless
// of pointer identity (NetConfig holds no pointers).
func poolKeyQuarry(cfg QuarryConfig) string {
	cfg.Seed = 0
	var net comm.NetConfig
	if cfg.Net != nil {
		net = *cfg.Net
	}
	cfg.Net = nil
	return fmt.Sprintf("quarry\x00%#v\x00%#v", cfg, net)
}

// AcquireQuarry returns a rig for the configuration: a parked rig
// Reset to cfg.Seed when the pool holds one, else a fresh NewQuarry.
// Release the rig when its run's results have been read; a released
// rig must not be used again.
func AcquireQuarry(cfg QuarryConfig) (*QuarryRig, error) {
	key := poolKeyQuarry(cfg)
	pool.Lock()
	var r *QuarryRig
	if list := pool.free[key]; len(list) > 0 {
		r = list[len(list)-1]
		list[len(list)-1] = nil
		pool.free[key] = list[:len(list)-1]
	}
	pool.Unlock()
	if r != nil {
		if err := r.Reset(cfg.Seed); err != nil {
			return nil, err
		}
		return r, nil
	}
	r, err := NewQuarry(cfg)
	if err != nil {
		return nil, err
	}
	r.poolKey = key
	return r, nil
}

// Release parks the rig for a later AcquireQuarry with an equivalent
// configuration. Rigs built directly with NewQuarry have no pool key
// and are not parked (Release is a no-op for them).
func (r *QuarryRig) Release() {
	if r.poolKey == "" {
		return
	}
	pool.Lock()
	if pool.free == nil {
		pool.free = make(map[string][]*QuarryRig)
	}
	pool.free[r.poolKey] = append(pool.free[r.poolKey], r)
	pool.Unlock()
}
