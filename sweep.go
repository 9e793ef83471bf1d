package coopmrm

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSeedSpec parses a -seeds argument into an explicit seed list.
// Accepted forms:
//
//	"1..32"   the inclusive range 1, 2, ..., 32
//	"3,5,9"   an explicit comma-separated list
//	"x8"      8 seeds derived from base via DeriveSeed (never sharing
//	          a stream with base itself or each other)
func ParseSeedSpec(spec string, base int64) ([]int64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("empty seed spec")
	}
	if rest, ok := strings.CutPrefix(spec, "x"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("seed spec %q: want x<count>, e.g. x8", spec)
		}
		// Same cap as the <lo>..<hi> form: the list is allocated up
		// front, so an oversized count would eat gigabytes before the
		// runner ever starts.
		if n > 1<<20 {
			return nil, fmt.Errorf("seed spec %q: range too large", spec)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = DeriveSeed(base, i)
		}
		return seeds, nil
	}
	if lo, hi, ok := strings.Cut(spec, ".."); ok {
		a, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("seed spec %q: want <lo>..<hi> with hi >= lo", spec)
		}
		// b-a overflows int64 on wide spans (0..MaxInt64); the unsigned
		// difference is exact for any a <= b. The loop counts rather
		// than stepping s <= b, which never ends when b is MaxInt64.
		span := uint64(b) - uint64(a)
		if span >= 1<<20 {
			return nil, fmt.Errorf("seed spec %q: range too large", spec)
		}
		seeds := make([]int64, span+1)
		for i := range seeds {
			seeds[i] = a + int64(i)
		}
		return seeds, nil
	}
	var seeds []int64
	seen := make(map[int64]bool)
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed spec %q: bad seed %q", spec, part)
		}
		// A repeated seed would run (and aggregate) the same arm
		// twice, silently skewing mean±sd — reject it.
		if seen[s] {
			return nil, fmt.Errorf("seed spec %q: duplicate seed %d", spec, s)
		}
		seen[s] = true
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// seedSpan renders a seed plan for the aggregated note: short lists
// verbatim, longer ones as their first..last span with the count.
func seedSpan(seeds []int64) string {
	if len(seeds) == 0 {
		return ""
	}
	if len(seeds) <= 4 {
		parts := make([]string, len(seeds))
		for i, s := range seeds {
			parts[i] = strconv.FormatInt(s, 10)
		}
		return strings.Join(parts, ",")
	}
	// A non-contiguous list like 3,5,9,11,20 must not render as a dense
	// "3..20 (5 seeds)" — mark the gap so the span is never mistaken
	// for the full inclusive range.
	for i := 1; i < len(seeds); i++ {
		if seeds[i] != seeds[i-1]+1 {
			return fmt.Sprintf("%d..%d (%d seeds, sparse)", seeds[0], seeds[len(seeds)-1], len(seeds))
		}
	}
	return fmt.Sprintf("%d..%d (%d seeds)", seeds[0], seeds[len(seeds)-1], len(seeds))
}
