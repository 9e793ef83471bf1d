package geom

import (
	"fmt"
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

// gridSizes are the site counts every grid property runs at: empty,
// the smallest, both sides of the direct-scan threshold, and a fleet.
var gridSizes = []int{0, 1, 2, smallGrid, smallGrid + 1, 300}

func TestGridCompleteness(t *testing.T) {
	// Any pair within the cell size must be a candidate, whatever the
	// layout; property-checked against the brute-force oracle, at
	// random sizes and at every gridSizes entry.
	rng := rand.New(rand.NewSource(7))
	var sizes []int
	for trial := 0; trial < 50; trial++ {
		sizes = append(sizes, 2+rng.Intn(40))
	}
	for _, n := range gridSizes {
		sizes = append(sizes, n, n, n)
	}
	for trial, n := range sizes {
		cell := 1 + 9*rng.Float64()
		g := NewGrid(cell)
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
					t.Fatalf("trial %d (%d sites): pair (%d,%d) at %.2f < cell %.2f missed", trial, n, i, j, d, cell)
				}
				if d > 2*1.4143*cell && got[[2]int{i, j}] {
					t.Fatalf("trial %d (%d sites): pair (%d,%d) at %.2f reported for cell %.2f", trial, n, i, j, d, cell)
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
// changes the cell size across a Reset. Sizes are random, then every
// gridSizes entry.
func TestGridPairsSortedAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sizes []int
	for trial := 0; trial < 300; trial++ {
		sizes = append(sizes, rng.Intn(60))
	}
	for _, n := range gridSizes {
		sizes = append(sizes, n, n, n, n, n)
	}
	g := NewGrid(1)
	for trial, n := range sizes {
		cell := 0.25 + 8*rng.Float64()
		g.Reset(cell)
		var pts []Vec2
		for len(pts) < n {
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
// At each gridSizes entry the grid holds a prefix of the four far
// sites, then finite fillers three cells apart, which pair with
// nothing.
func TestGridFarAndNaNSites(t *testing.T) {
	far := []Vec2{V(math.NaN(), 0), V(math.Inf(-1), 0), V(1e300, 1e300), V(math.Inf(1), math.Inf(1))}
	for _, n := range gridSizes {
		g := NewGrid(1)
		for i := 0; i < n; i++ {
			if i < len(far) {
				g.Insert(far[i])
			} else {
				g.Insert(V(float64(i%20)*3, float64(i/20)*3))
			}
		}
		var wantPairs [][2]int
		var wantNear []int
		for _, pr := range [][2]int{{0, 1}, {2, 3}} {
			if pr[1] < n {
				wantPairs = append(wantPairs, pr)
			}
		}
		for h := range min(n, 2) {
			wantNear = append(wantNear, h)
		}
		if got := g.CandidatePairs(nil); !slices.Equal(got, wantPairs) {
			t.Errorf("%d sites: pairs = %v, want %v", n, got, wantPairs)
		}
		got := g.Near(nil, V(-1e300, 0))
		slices.Sort(got)
		if !slices.Equal(got, wantNear) {
			t.Errorf("%d sites: Near at the low edge = %v, want %v", n, got, wantNear)
		}
	}
}

// TestGridNearProperty checks Near against a brute-force scan: every
// site within the cell size of the query point is returned, and the
// returned set is exactly the set of sites CandidatePairs pairs with a
// site inserted at the query point. Layouts straddle the origin, so
// negative coordinates are covered, and every trial also places sites
// exactly one cell away along each axis and diagonal (as many of them
// as the trial's size holds). Sizes are random, then every gridSizes
// entry; the CandidatePairs check runs at one site more.
func TestGridNearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sizes []int
	for trial := 0; trial < 200; trial++ {
		sizes = append(sizes, 7+rng.Intn(60))
	}
	for _, n := range gridSizes {
		sizes = append(sizes, n, n, n)
	}
	for trial, n := range sizes {
		cell := 0.5 + 12*rng.Float64()
		g := NewGrid(cell)
		q := V(rng.Float64()*60-30, rng.Float64()*60-30)
		var pts []Vec2
		for _, d := range []Vec2{V(cell, 0), V(-cell, 0), V(0, cell), V(0, -cell), V(cell, cell), V(-cell, -cell)} {
			if len(pts) < n {
				pts = append(pts, q.Add(d))
			}
		}
		for len(pts) < n {
			pts = append(pts, V(rng.Float64()*80-40, rng.Float64()*80-40))
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
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
// sites inserted since, and queries see only those, whether the new
// sites take the direct scan or the sorted path. The warm cycle then
// allocates nothing on either path, even when every cycle's sites
// land in cells the grid has never seen, as moving vehicles do.
func TestGridResetForgetsCells(t *testing.T) {
	g := NewGrid(1)
	for i := 0; i < 10000; i++ {
		g.Insert(V(float64(i%100)*3, float64(i/100)*3))
	}
	if n := len(g.CandidatePairs(nil)); n != 0 {
		t.Fatalf("%d pairs among sites three cells apart", n)
	}
	row := make([]Vec2, smallGrid+8) // distinct cells, neighbours along y = 0
	for i := range row {
		row[i] = V(0.5+float64(i), 0.5)
	}
	for _, pts := range [][]Vec2{{V(0.5, 0.5), V(1.5, 0.5), V(600, 600)}, row} {
		g.Reset(1)
		for _, p := range pts {
			g.Insert(p)
		}
		if got, want := g.CandidatePairs(nil), adjacentPairs(pts, 1); !slices.Equal(got, want) {
			t.Errorf("%d sites: pairs after Reset = %v, want %v", len(pts), got, want)
		}
		if got := g.Near(nil, V(3, 3)); len(got) != 0 {
			t.Errorf("%d sites: Near at a forgotten site = %v, want none", len(pts), got)
		}
		if len(g.sites) != len(pts) {
			t.Errorf("grid holds %d sites after Reset, want %d", len(g.sites), len(pts))
		}
		if len(pts) > smallGrid && len(g.runs) != len(pts) {
			t.Errorf("grid holds %d cells after Reset, want %d", len(g.runs), len(pts))
		}
	}

	for _, n := range []int{64, smallGrid / 2} {
		var pairs [][2]int
		var near []int
		shift := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			shift += 10
			g.Reset(1)
			for i := 0; i < n; i++ {
				g.Insert(V(shift+float64(i%8), float64(i/8)-shift))
			}
			pairs = g.CandidatePairs(pairs[:0])
			near = g.Near(near[:0], V(shift+4, 1-shift))
		})
		if allocs != 0 {
			t.Errorf("%d sites: warm Reset/Insert/CandidatePairs/Near cycle allocates %.1f times, want 0", n, allocs)
		}
		if len(pairs) == 0 || len(near) == 0 {
			t.Errorf("%d sites: cycle found %d pairs and %d neighbours: the layout proves nothing", n, len(pairs), len(near))
		}
	}
}

// benchSites lays n sites out like a haul road: vehicles spaced
// 5–40 m along two lanes, with the collector's ≈15 m cell.
func benchSites(n int) []Vec2 {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vec2, n)
	x := 0.0
	for i := range pts {
		x += 5 + 35*rng.Float64()
		pts[i] = V(x, float64(i%2)*4)
	}
	return pts
}

// BenchmarkGridPairs times one Reset/Insert/CandidatePairs cycle on
// the direct scan and on the sorted path at sizes around smallGrid,
// the numbers that place the threshold.
func BenchmarkGridPairs(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		pts := benchSites(n)
		for _, path := range []struct {
			name  string
			pairs func(*Grid, [][2]int) [][2]int
		}{{"direct", (*Grid).pairsDirect}, {"sorted", (*Grid).pairsSorted}} {
			b.Run(fmt.Sprintf("sites=%d/%s", n, path.name), func(b *testing.B) {
				g := NewGrid(15)
				var buf [][2]int
				for range b.N {
					g.Reset(15)
					for _, p := range pts {
						g.Insert(p)
					}
					buf = path.pairs(g, buf[:0])
				}
			})
		}
	}
}

// BenchmarkGridNear times one Reset/Insert cycle and a Near query at
// every site, as the fleet sensing index asks, on both paths.
func BenchmarkGridNear(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		pts := benchSites(n)
		for _, path := range []struct {
			name string
			near func(*Grid, []int, cellKey) []int
		}{{"direct", (*Grid).nearDirect}, {"sorted", (*Grid).nearSorted}} {
			b.Run(fmt.Sprintf("sites=%d/%s", n, path.name), func(b *testing.B) {
				g := NewGrid(15)
				var buf []int
				for range b.N {
					g.Reset(15)
					for _, p := range pts {
						g.Insert(p)
					}
					for _, p := range pts {
						buf = path.near(g, buf[:0], g.key(p))
					}
				}
			})
		}
	}
}
