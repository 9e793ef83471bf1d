package sim

// Division-free seeding for every engine RNG.
//
// rand.NewSource runs 20 + 3×607 Lehmer steps per seed, each a
// Schrage-decomposition division, and a quarry rig seeds half a dozen
// sources: seeding through it was ~60% of fresh rig construction.
// fastSource is an exact replica of math/rand's rngSource — same
// additive lagged-Fibonacci recurrence (len 607, tap 273), same seeding
// schedule, same rngCooked XOR — with one change: the Lehmer step
// replaces Schrage's hi/lo division with a Mersenne-prime fold, which
// is division-free and exactly equivalent modulo 2³¹−1. Seeding is ~6×
// cheaper and the stream is bit-identical to rand.NewSource's
// (TestFastSourceMatchesMathRand is the proof), so NewRNG and the
// warm-rig Reseed share one source, and a Reset rig replays a fresh
// rig's randomness byte for byte.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// fastSource implements rand.Source64 with rngSource's exact stream.
type fastSource struct {
	tap, feed int
	vec       [rngLen]int64
}

// seedrandFast advances the x[n+1] = 48271·x[n] mod (2³¹−1) Lehmer
// generator one step. 48271·x fits in 47 bits, and for a Mersenne
// modulus 2³¹−1 the reduction y mod m folds as (y>>31) + (y&m) with at
// most one conditional subtraction — no division. Equivalent to
// math/rand's seedrand for every x in [1, 2³¹−2].
func seedrandFast(x int32) int32 {
	y := uint64(x) * 48271
	r := int64(y>>31) + int64(y&int32max)
	if r >= int32max {
		r -= int32max
	}
	return int32(r)
}

// Lehmer jump multipliers 48271^k mod 2³¹−1. The seeding schedule
// consumes x₂₁..x₁₈₄₁ of the Lehmer orbit (20 warmup steps, then 3
// values per vec entry); jumping straight to x₂₁, x₄₇₇, x₉₃₃ and
// x₁₃₈₉ splits the orbit into four independent chains the CPU can
// pipeline, instead of one 1841-multiply dependency chain.
const (
	lehmerJump21   = 638022372  // 48271^21 mod 2³¹−1
	lehmerJump477  = 1581236663 // 48271^477 mod 2³¹−1
	lehmerJump933  = 1581607459 // 48271^933 mod 2³¹−1
	lehmerJump1389 = 1261956076 // 48271^1389 mod 2³¹−1
)

// lehmerMul computes (a·x) mod 2³¹−1 for a, x in [0, 2³¹−1): the
// 62-bit product folds in 31-bit limbs (Mersenne modulus), with at
// most one final subtraction.
func lehmerMul(a, x uint64) int32 {
	y := a * x
	r := (y >> 31) + (y & int32max)
	r = (r >> 31) + (r & int32max)
	if r >= int32max {
		r -= int32max
	}
	return int32(r)
}

// Seed reinitialises the source to rngSource.Seed(seed)'s exact state.
// Each vec entry folds three consecutive Lehmer values; the entries
// are filled by four jump-started chains running in lockstep (see
// lehmerJump*), which is what makes seeding ~6× cheaper than
// rand.NewSource while staying bit-identical to it.
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	// Chain c starts at orbit position 21+456c and fills vec entries
	// [152c, 152c+152) — 456 values each, except the last chain's 151
	// entries. 456 is the largest multiple of 3 splitting 3×607 values
	// into four near-equal runs.
	x0 := uint64(seed)
	x1 := lehmerMul(lehmerJump21, x0)
	x2 := lehmerMul(lehmerJump477, x0)
	x3 := lehmerMul(lehmerJump933, x0)
	x4 := lehmerMul(lehmerJump1389, x0)
	for k := 0; k < 152; k++ {
		u1 := int64(x1) << 40
		x1 = seedrandFast(x1)
		u1 ^= int64(x1) << 20
		x1 = seedrandFast(x1)
		u1 ^= int64(x1)
		x1 = seedrandFast(x1)
		s.vec[k] = u1 ^ rngCooked[k]

		u2 := int64(x2) << 40
		x2 = seedrandFast(x2)
		u2 ^= int64(x2) << 20
		x2 = seedrandFast(x2)
		u2 ^= int64(x2)
		x2 = seedrandFast(x2)
		s.vec[152+k] = u2 ^ rngCooked[152+k]

		u3 := int64(x3) << 40
		x3 = seedrandFast(x3)
		u3 ^= int64(x3) << 20
		x3 = seedrandFast(x3)
		u3 ^= int64(x3)
		x3 = seedrandFast(x3)
		s.vec[304+k] = u3 ^ rngCooked[304+k]

		if i := 456 + k; i < rngLen {
			u4 := int64(x4) << 40
			x4 = seedrandFast(x4)
			u4 ^= int64(x4) << 20
			x4 = seedrandFast(x4)
			u4 ^= int64(x4)
			x4 = seedrandFast(x4)
			s.vec[i] = u4 ^ rngCooked[i]
		}
	}
}

func (s *fastSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
