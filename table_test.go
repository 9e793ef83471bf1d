package coopmrm

import (
	"math"
	"testing"
)

// The CellFloat zero-swallowing regression: before the fix, any parse
// failure — including every aggregated "mean±sd" cell a seed sweep
// produces — silently returned 0, so shape assertions against swept
// tables compared against 0 and passed (or failed) vacuously.
func TestCellFloatParsesAggregatedCells(t *testing.T) {
	tab := Table{Header: []string{"arm", "v"}}
	tab.AddRow("plain", "2.5")
	tab.AddRow("pct", "52.1%")
	tab.AddRow("agg", "55.00±5.00")
	tab.AddRow("aggpct", "55.00±7.07%")
	tab.AddRow("campaign", "55.00±7.07% [n=8, ci=4.90]")
	tab.AddRow("negative", "-3.25±0.10")
	tab.AddRow("text", "varies(3)")
	tab.AddRow("empty", "")

	cases := []struct {
		row  int
		want float64
		ok   bool
	}{
		{0, 2.5, true},
		{1, 52.1, true},
		{2, 55.00, true},
		{3, 55.00, true},
		{4, 55.00, true},
		{5, -3.25, true},
		{6, 0, false},
		{7, 0, false},
	}
	for _, tc := range cases {
		v, ok := tab.CellFloatOK(tc.row, 1)
		if v != tc.want || ok != tc.ok {
			t.Errorf("CellFloatOK(%d) = %v, %v; want %v, %v (cell %q)",
				tc.row, v, ok, tc.want, tc.ok, tab.Cell(tc.row, 1))
		}
		if got := tab.CellFloat(tc.row, 1); got != tc.want {
			t.Errorf("CellFloat(%d) = %v, want %v", tc.row, got, tc.want)
		}
	}
	// Out-of-range cells stay unparseable, not zero-valued truths.
	if _, ok := tab.CellFloatOK(99, 99); ok {
		t.Error("out-of-range cell should not parse")
	}
}

// A sweep table built by the real aggregator — the streaming campaign
// fold — must round-trip through CellFloat: the assertion pattern
// every TestE*Shape-style test on swept tables depends on.
func TestCellFloatOnSweptTable(t *testing.T) {
	st := &campaignState{}
	for _, v := range []string{"50%", "60%"} {
		tab := Table{ID: "T", Header: []string{"arm", "share"}}
		tab.AddRow("a", v)
		st.fold(tab)
	}
	agg := st.render([]int64{1, 2})
	if got := agg.Cell(0, 1); got != "55.00±7.07% [n=2, ci=9.80]" {
		t.Fatalf("aggregated cell = %q", got)
	}
	v, ok := agg.CellFloatOK(0, 1)
	if !ok || math.Abs(v-55) > 1e-9 {
		t.Errorf("CellFloatOK on swept cell = %v, %v; want 55, true", v, ok)
	}
}
