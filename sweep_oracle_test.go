package coopmrm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// AggregateSeedTables folds per-seed tables of one experiment into a
// single table: cells identical across seeds are kept verbatim,
// numeric cells become "mean±sd" (Bessel-corrected sample sd), and
// divergent non-numeric cells report the number of distinct values.
// Tables must be seed-ordered and of the same experiment; the first
// table supplies ID, title and header.
//
// This retained two-pass fold is the oracle the streaming campaign
// (SweepSeedsStream) is differentially tested against; it holds every
// table, so it is O(seeds) in memory by construction.
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
