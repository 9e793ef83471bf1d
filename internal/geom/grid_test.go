package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func pairSet(pairs [][2]int) map[[2]int]bool {
	out := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

func TestGridCompleteness(t *testing.T) {
	// Any pair within the cell size must be a candidate, whatever the
	// layout; property-checked against the brute-force oracle.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cell := 1 + 9*rng.Float64()
		g := NewGrid(cell)
		n := 2 + rng.Intn(40)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = V(rng.Float64()*100-50, rng.Float64()*100-50)
			g.Insert(pts[i])
		}
		got := pairSet(g.CandidatePairs(nil))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := pts[i].Dist(pts[j])
				if d < cell && !got[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) at %.2f < cell %.2f missed", trial, i, j, d, cell)
				}
				if d > 2*1.4143*cell && got[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) at %.2f reported for cell %.2f", trial, i, j, d, cell)
				}
			}
		}
	}
}

// adjacentPairs is the brute-force oracle for CandidatePairs: every
// pair (i, j), i < j, whose cells are the same or touch, in (i, j)
// order.
func adjacentPairs(pts []Vec2, cell float64) [][2]int {
	var out [][2]int
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			dx := math.Floor(pts[i].X/cell) - math.Floor(pts[j].X/cell)
			dy := math.Floor(pts[i].Y/cell) - math.Floor(pts[j].Y/cell)
			if math.Abs(dx) <= 1 && math.Abs(dy) <= 1 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// TestGridPairsSortedAndUnique checks the exact pair list, set and
// order, against the brute-force enumeration on random layouts that
// straddle the origin, put sites exactly on cell edges and stack many
// sites in one cell. One grid serves every trial, so each trial also
// changes the cell size across a Reset.
func TestGridPairsSortedAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGrid(1)
	for trial := 0; trial < 300; trial++ {
		cell := 0.25 + 8*rng.Float64()
		g.Reset(cell)
		var pts []Vec2
		for n := rng.Intn(60); len(pts) < n; {
			var p Vec2
			switch rng.Intn(3) {
			case 0: // anywhere, negative coordinates included
				p = V(rng.Float64()*20*cell-10*cell, rng.Float64()*20*cell-10*cell)
			case 1: // exactly on a cell edge or corner
				p = V(float64(rng.Intn(9)-4)*cell, float64(rng.Intn(9)-4)*cell)
				if rng.Intn(2) == 0 {
					p.Y += rng.Float64() * cell
				}
			default: // a clump in one cell
				p = V(-cell+0.5*cell*rng.Float64(), 2*cell+0.5*cell*rng.Float64())
			}
			pts = append(pts, p)
			g.Insert(p)
		}
		got := g.CandidatePairs(nil)
		want := adjacentPairs(pts, cell)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (cell %.3f, %d sites): pairs\n got %v\nwant %v", trial, cell, len(pts), got, want)
		}
	}
}

func TestGridResetReuses(t *testing.T) {
	g := NewGrid(1)
	g.Insert(V(0, 0))
	g.Insert(V(0.5, 0))
	if n := len(g.CandidatePairs(nil)); n != 1 {
		t.Fatalf("pairs = %d, want 1", n)
	}
	g.Reset(1)
	if n := len(g.CandidatePairs(nil)); n != 0 {
		t.Errorf("pairs after reset = %d, want 0", n)
	}
	// New cell size takes effect: sites 8 apart are eight cells apart
	// at size 1 but share a cell at size 10.
	g.Reset(10)
	g.Insert(V(0, 0))
	g.Insert(V(8, 0))
	if n := len(g.CandidatePairs(nil)); n != 1 {
		t.Errorf("pairs = %d, want 1 at the larger cell", n)
	}
	// Degenerate cell sizes are clamped, not a crash.
	g.Reset(0)
	g.Insert(V(1, 1))
}

func TestGridNegativeCoordinates(t *testing.T) {
	// math.Floor (not integer truncation) must assign cells around the
	// origin: -0.5 and +0.5 are different cells at size 1.
	g := NewGrid(1)
	g.Insert(V(-0.5, 0.5))
	g.Insert(V(0.5, 0.5))
	g.Insert(V(-1.5, 0.5))
	got := pairSet(g.CandidatePairs(nil))
	if !got[[2]int{0, 1}] || !got[[2]int{0, 2}] {
		t.Errorf("adjacent cells across the origin missed: %v", got)
	}
}

// TestGridFarAndNaNSites checks that positions beyond the cell range
// (infinite, huge or NaN) share the edge cells instead of overflowing
// the cell arithmetic: they pair with each other and Near finds them.
func TestGridFarAndNaNSites(t *testing.T) {
	g := NewGrid(1)
	g.Insert(V(math.NaN(), 0))
	g.Insert(V(math.Inf(-1), 0))
	g.Insert(V(1e300, 1e300))
	g.Insert(V(math.Inf(1), math.Inf(1)))
	if got, want := g.CandidatePairs(nil), [][2]int{{0, 1}, {2, 3}}; !slices.Equal(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
	if got := g.Near(nil, V(-1e300, 0)); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("Near at the low edge = %v, want [0 1]", got)
	}
}

// TestGridNearProperty checks Near against a brute-force scan: every
// site within the cell size of the query point is returned, and the
// returned set is exactly the set of sites CandidatePairs pairs with a
// site inserted at the query point. Layouts straddle the origin, so
// negative coordinates are covered, and every trial also places sites
// exactly one cell away along each axis and diagonal.
func TestGridNearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cell := 0.5 + 12*rng.Float64()
		g := NewGrid(cell)
		q := V(rng.Float64()*60-30, rng.Float64()*60-30)
		var pts []Vec2
		for i := 0; i < 1+rng.Intn(60); i++ {
			pts = append(pts, V(rng.Float64()*80-40, rng.Float64()*80-40))
		}
		for _, d := range []Vec2{V(cell, 0), V(-cell, 0), V(0, cell), V(0, -cell), V(cell, cell), V(-cell, -cell)} {
			pts = append(pts, q.Add(d))
		}
		for _, p := range pts {
			g.Insert(p)
		}
		got := map[int]int{}
		for _, h := range g.Near(nil, q) {
			got[h]++
		}
		for i, p := range pts {
			if got[i] > 1 {
				t.Fatalf("trial %d: site %d returned %d times", trial, i, got[i])
			}
			if q.Dist(p) <= cell && got[i] == 0 {
				t.Fatalf("trial %d: site %d at %.4f <= cell %.4f missed", trial, i, q.Dist(p), cell)
			}
		}
		// The query point as one more site: its candidate partners are
		// exactly Near's answer.
		self := len(pts)
		g.Insert(q)
		partners := map[int]int{}
		for _, pr := range g.CandidatePairs(nil) {
			switch self {
			case pr[0]:
				partners[pr[1]]++
			case pr[1]:
				partners[pr[0]]++
			}
		}
		if len(partners) != len(got) {
			t.Fatalf("trial %d: Near returned %d sites, CandidatePairs pairs %d", trial, len(got), len(partners))
		}
		for h := range got {
			if partners[h] != 1 {
				t.Fatalf("trial %d: site %d from Near is not a candidate partner", trial, h)
			}
		}
	}
}

func TestGridNearAppendsAndSkipsEmpty(t *testing.T) {
	g := NewGrid(1)
	if got := g.Near(nil, V(0, 0)); len(got) != 0 {
		t.Errorf("empty grid returned %v", got)
	}
	g.Insert(V(5, 5))
	g.Insert(V(-0.5, -0.5))
	buf := []int{42}
	buf = g.Near(buf, V(0.5, 0.5))
	if len(buf) != 2 || buf[0] != 42 || buf[1] != 1 {
		t.Errorf("Near(buf) = %v, want [42 1]", buf)
	}
}

// TestGridResetForgetsCells checks that a Reset drops every cell: after
// sites in 10⁴ distinct cells and a Reset, the grid holds only the
// sites inserted since, and queries see only those. The warm cycle
// then allocates nothing even when every cycle's sites land in cells
// the grid has never seen, as moving vehicles do.
func TestGridResetForgetsCells(t *testing.T) {
	g := NewGrid(1)
	for i := 0; i < 10000; i++ {
		g.Insert(V(float64(i%100)*3, float64(i/100)*3))
	}
	if n := len(g.CandidatePairs(nil)); n != 0 {
		t.Fatalf("%d pairs among sites three cells apart", n)
	}
	g.Reset(1)
	pts := []Vec2{V(0.5, 0.5), V(1.5, 0.5), V(600, 600)}
	for _, p := range pts {
		g.Insert(p)
	}
	if got, want := g.CandidatePairs(nil), adjacentPairs(pts, 1); !slices.Equal(got, want) {
		t.Errorf("pairs after Reset = %v, want %v", got, want)
	}
	if got := g.Near(nil, V(3, 3)); len(got) != 0 {
		t.Errorf("Near at a forgotten site = %v, want none", got)
	}
	if len(g.sites) != len(pts) || len(g.runs) != len(pts) {
		t.Errorf("grid holds %d sites in %d cells after Reset, want %d", len(g.sites), len(g.runs), len(pts))
	}

	var pairs [][2]int
	var near []int
	shift := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		shift += 10
		g.Reset(1)
		for i := 0; i < 64; i++ {
			g.Insert(V(shift+float64(i%8), float64(i/8)-shift))
		}
		pairs = g.CandidatePairs(pairs[:0])
		near = g.Near(near[:0], V(shift+4, 4-shift))
	})
	if allocs != 0 {
		t.Errorf("warm Reset/Insert/CandidatePairs/Near cycle allocates %.1f times, want 0", allocs)
	}
	if len(pairs) == 0 || len(near) == 0 {
		t.Errorf("cycle found %d pairs and %d neighbours: the layout proves nothing", len(pairs), len(near))
	}
}
