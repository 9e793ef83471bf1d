package sim

import "math/rand"

// RNG is the engine-owned deterministic random source. It wraps
// math/rand.Rand over a fastSource — math/rand's exact stream, seeded
// without division (rngfast.go) — so all call sites share one stream,
// keeping runs reproducible for a given seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	src := new(fastSource)
	src.Seed(seed)
	return &RNG{r: rand.New(src)}
}

// Reseed restores g, in place and without allocating, to the exact
// stream NewRNG(seed) would produce. The draws RNG makes keep no
// state in rand.Rand across calls, so reseeding the source is
// reseeding the stream. This is the warm-rig path: a Reset rig replays
// a fresh rig's randomness.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Range returns a uniform value in [lo, hi).
func (g *RNG) Range(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
