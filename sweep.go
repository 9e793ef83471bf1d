package coopmrm

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"coopmrm/internal/runner"
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

// SweepSeeds runs e once per seed, fanning the per-seed jobs across at
// most parallel workers, and aggregates the per-seed tables into one:
// cells identical across seeds are kept verbatim, numeric cells become
// "mean±sd", and divergent non-numeric cells report the number of
// distinct values. Aggregation happens over the seed-ordered tables,
// so the result is independent of worker count.
func SweepSeeds(e Experiment, opt Options, seeds []int64, parallel int) (Table, error) {
	tables, err := runner.Map(context.Background(), parallel, len(seeds), func(_ context.Context, i int) (Table, error) {
		return e.Run(opt.WithSeed(seeds[i])), nil
	})
	if err != nil {
		return Table{}, err
	}
	return AggregateSeedTables(tables, seeds), nil
}

// AggregateSeedTables folds per-seed tables of one experiment into a
// single table as described at SweepSeeds; sd is the Bessel-corrected
// sample standard deviation. Tables must be seed-ordered and of the
// same experiment; the first table supplies ID, title and header.
//
// This retained-table path is the exact two-pass oracle the streaming
// campaign path (SweepSeedsStream) is differentially tested against;
// it stays O(seeds) in memory by construction.
func AggregateSeedTables(tables []Table, seeds []int64) Table {
	if len(tables) == 0 {
		return Table{}
	}
	out := Table{
		ID:     tables[0].ID,
		Title:  tables[0].Title,
		Paper:  tables[0].Paper,
		Header: tables[0].Header,
		Note: strings.TrimSpace(fmt.Sprintf(
			"aggregated over %d seeds (%s): numeric cells are mean±sd. %s",
			len(seeds), seedSpan(seeds), tables[0].Note)),
	}
	rows := 0
	for _, t := range tables {
		if len(t.Rows) > rows {
			rows = len(t.Rows)
		}
	}
	for r := 0; r < rows; r++ {
		cols := 0
		for _, t := range tables {
			if r < len(t.Rows) && len(t.Rows[r]) > cols {
				cols = len(t.Rows[r])
			}
		}
		row := make([]string, cols)
		for c := 0; c < cols; c++ {
			cells := make([]string, len(tables))
			for i, t := range tables {
				cells[i] = t.Cell(r, c)
			}
			row[c] = aggregateCell(cells)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

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

func aggregateCell(cells []string) string {
	same := true
	for _, c := range cells[1:] {
		if c != cells[0] {
			same = false
			break
		}
	}
	if same {
		return cells[0]
	}
	vals := make([]float64, len(cells))
	numeric, allPct := true, true
	for i, c := range cells {
		trimmed := strings.TrimSpace(c)
		stripped := strings.TrimSuffix(trimmed, "%")
		if stripped == trimmed {
			allPct = false
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(stripped), 64)
		// ParseFloat happily accepts "NaN" and "Inf"; a non-finite cell
		// cannot contribute to mean±sd, so treat it as non-numeric and
		// fall through to the varies(n) rendering.
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			numeric = false
			break
		}
		vals[i] = v
	}
	if !numeric {
		distinct := map[string]bool{}
		for _, c := range cells {
			distinct[c] = true
		}
		return fmt.Sprintf("varies(%d)", len(distinct))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	// Bessel-corrected sample sd (÷ n-1): the seeds are a sample from
	// the seed population, and the population formula (÷ n)
	// systematically underreports spread at the small n where it
	// matters most. n == 1 cannot happen here (a single table is always
	// "same"), but guard it rather than divide by zero.
	var sd float64
	if len(vals) > 1 {
		sd = math.Sqrt(ss / float64(len(vals)-1))
	}
	// When every cell carried the % unit, keep it on the aggregate so
	// "50%"/"60%" reads "55.00±5.00%", not a unitless number.
	unit := ""
	if allPct {
		unit = "%"
	}
	return fmt.Sprintf("%.2f±%.2f%s", mean, sd, unit)
}
