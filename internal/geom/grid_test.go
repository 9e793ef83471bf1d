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

// oracleCell is cellCoord restated: the cell coordinate of v at the
// given cell size, with NaN and far values on the edge cells.
func oracleCell(v, cell float64) float64 {
	c := math.Floor(v / cell)
	if !(c > -cellLimit) {
		return -cellLimit
	}
	return min(c, cellLimit)
}

// checkBox checks one Box query on g, which holds pts, against the
// brute-force oracle: the answer is exactly the sites whose cell lies
// in the box's cell range on both axes, nothing for a box that holds
// no point, and every site inside the box is among them. Both paths
// must give that set. It returns the answer's size.
func checkBox(t *testing.T, g *Grid, pts []Vec2, lo, hi Vec2) int {
	t.Helper()
	var want []int
	if lo.X <= hi.X && lo.Y <= hi.Y {
		x0, x1 := oracleCell(lo.X, g.cell), oracleCell(hi.X, g.cell)
		y0, y1 := oracleCell(lo.Y, g.cell), oracleCell(hi.Y, g.cell)
		for h, p := range pts {
			if x, y := oracleCell(p.X, g.cell), oracleCell(p.Y, g.cell); x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				want = append(want, h)
			}
		}
		k0, k1 := g.key(lo), g.key(hi)
		for _, path := range []struct {
			name  string
			cells func(*Grid, []int, cellKey, cellKey) []int
		}{{"direct", (*Grid).cellsDirect}, {"sorted", (*Grid).cellsSorted}} {
			got := path.cells(g, nil, k0, k1)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d sites, cell %v, box %v–%v: %s path = %v, want %v", len(pts), g.cell, lo, hi, path.name, got, want)
			}
		}
	}
	got := g.Box([]int{-1}, lo, hi)
	if got[0] != -1 {
		t.Fatalf("Box overwrote the buffer: %v", got)
	}
	got = got[1:]
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%d sites, cell %v, box %v–%v: Box = %v, want %v", len(pts), g.cell, lo, hi, got, want)
	}
	for h, p := range pts {
		if p.X >= lo.X && p.X <= hi.X && p.Y >= lo.Y && p.Y <= hi.Y {
			if _, ok := slices.BinarySearch(got, h); !ok {
				t.Fatalf("%d sites, box %v–%v: site %d at %v inside the box missed", len(pts), lo, hi, h, p)
			}
		}
	}
	return len(got)
}

// TestGridBoxProperty checks Box, on both paths, against the
// brute-force oracle at every gridSizes entry. Sites straddle the
// origin, sit exactly on cell edges and corners, clump in one cell,
// and a few lie far out or at NaN. Boxes are random, span exactly one
// site or one site's cell, have edges on cell boundaries and on
// sites, or are inverted, NaN, infinite or ±1e300 wide; the sorted
// walk must cross the widest in the time its occupied columns take.
func TestGridBoxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	far := []Vec2{V(math.NaN(), 1), V(1e300, -1e300), V(math.Inf(-1), 0)}
	hits := 0
	for _, n := range gridSizes {
		for trial := 0; trial < 20; trial++ {
			cell := 0.25 + 8*rng.Float64()
			g := NewGrid(cell)
			var pts []Vec2
			for len(pts) < n {
				var p Vec2
				switch rng.Intn(8) {
				case 0: // exactly on a cell edge or corner
					p = V(float64(rng.Intn(9)-4)*cell, float64(rng.Intn(9)-4)*cell)
					if rng.Intn(2) == 0 {
						p.Y += rng.Float64() * cell
					}
				case 1: // a clump in one cell
					p = V(-cell+0.5*cell*rng.Float64(), 2*cell+0.5*cell*rng.Float64())
				case 2:
					p = far[rng.Intn(len(far))]
				default: // anywhere, negative coordinates included
					p = V(rng.Float64()*20*cell-10*cell, rng.Float64()*20*cell-10*cell)
				}
				pts = append(pts, p)
				g.Insert(p)
			}
			var boxes [][2]Vec2
			for range 10 {
				a := V(rng.Float64()*24*cell-12*cell, rng.Float64()*24*cell-12*cell)
				b := a.Add(V(rng.Float64()*6*cell, rng.Float64()*6*cell))
				boxes = append(boxes, [2]Vec2{a, b}, [2]Vec2{b, a})
				// Edges on cell boundaries.
				a = V(float64(rng.Intn(9)-4)*cell, float64(rng.Intn(9)-4)*cell)
				boxes = append(boxes, [2]Vec2{a, a.Add(V(float64(rng.Intn(3))*cell, float64(rng.Intn(3))*cell))})
			}
			if n > 0 {
				p := pts[rng.Intn(n)]
				q := pts[rng.Intn(n)]
				boxes = append(boxes,
					[2]Vec2{p, p}, // the site alone
					[2]Vec2{V(math.Min(p.X, q.X), math.Min(p.Y, q.Y)), V(math.Max(p.X, q.X), math.Max(p.Y, q.Y))},
					[2]Vec2{V(math.Nextafter(p.X, math.Inf(1)), p.Y), V(p.X+cell, p.Y+cell)}) // just past it
			}
			nan, inf := math.NaN(), math.Inf(1)
			boxes = append(boxes,
				[2]Vec2{V(nan, 0), V(1, 1)},
				[2]Vec2{V(0, 0), V(1, nan)},
				[2]Vec2{V(nan, nan), V(nan, nan)},
				[2]Vec2{V(-inf, -inf), V(inf, inf)},
				[2]Vec2{V(-1e300, -cell), V(1e300, cell)},
				[2]Vec2{V(-cell, -1e300), V(cell, 1e300)},
				[2]Vec2{V(1e300, 0), V(inf, 1)},
				[2]Vec2{V(inf, -inf), V(-inf, inf)})
			for _, b := range boxes {
				hits += checkBox(t, g, pts, b[0], b[1])
			}
		}
	}
	if hits == 0 {
		t.Error("no box held a site: the layouts prove nothing")
	}
}

// FuzzGridBox checks Box against the brute-force oracle on both paths
// for any cell size, box and random layout of up to 300 sites, about
// half of them inside the box's span.
func FuzzGridBox(f *testing.F) {
	f.Add(int64(1), uint16(0), 1.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(int64(2), uint16(smallGrid), 2.5, -3.0, -3.0, 4.0, 2.0)
	f.Add(int64(3), uint16(smallGrid+1), 11.3, 0.5, -2.5, 25.0, 2.5)
	f.Add(int64(4), uint16(300), 0.7, 5.0, 5.0, -5.0, -5.0)
	f.Add(int64(5), uint16(100), 1.0, math.NaN(), 0.0, 1.0, 1.0)
	f.Add(int64(6), uint16(100), 1e-300, -1e300, -1.0, 1e300, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cell, lox, loy, hix, hiy float64) {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(cell)
		lo, hi := V(lox, loy), V(hix, hiy)
		span := func(a, b float64) float64 {
			if s := a + (b-a)*(2*rng.Float64()-0.5); !math.IsNaN(s) {
				return s
			}
			return a
		}
		pts := make([]Vec2, int(n)%301)
		for i := range pts {
			pts[i] = V(span(lox, hix), span(loy, hiy))
			g.Insert(pts[i])
		}
		checkBox(t, g, pts, lo, hi)
	})
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
// every site, as the trajectory planner asks, on both paths.
func BenchmarkGridNear(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		pts := benchSites(n)
		for _, path := range []struct {
			name  string
			cells func(*Grid, []int, cellKey, cellKey) []int
		}{{"direct", (*Grid).cellsDirect}, {"sorted", (*Grid).cellsSorted}} {
			b.Run(fmt.Sprintf("sites=%d/%s", n, path.name), func(b *testing.B) {
				g := NewGrid(15)
				var buf []int
				for range b.N {
					g.Reset(15)
					for _, p := range pts {
						g.Insert(p)
					}
					for _, p := range pts {
						k := g.key(p)
						buf = path.cells(g, buf[:0], cellKey{k.x - 1, k.y - 1}, cellKey{k.x + 1, k.y + 1})
					}
				}
			})
		}
	}
}

// BenchmarkGridBox times one Reset/Insert cycle and a Box query at
// every site for the 25 m by 5 m corridor ahead of it, as the fleet
// sensing index asks, on both paths.
func BenchmarkGridBox(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		pts := benchSites(n)
		for _, path := range []struct {
			name  string
			cells func(*Grid, []int, cellKey, cellKey) []int
		}{{"direct", (*Grid).cellsDirect}, {"sorted", (*Grid).cellsSorted}} {
			b.Run(fmt.Sprintf("sites=%d/%s", n, path.name), func(b *testing.B) {
				g := NewGrid(15)
				var buf []int
				for range b.N {
					g.Reset(15)
					for _, p := range pts {
						g.Insert(p)
					}
					for _, p := range pts {
						buf = path.cells(g, buf[:0], g.key(p.Add(V(0.5, -2.5))), g.key(p.Add(V(25, 2.5))))
					}
				}
			})
		}
	}
}
