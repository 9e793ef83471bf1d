package geom

import (
	"math/rand"
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
			g.Insert(i, pts[i])
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

func TestGridPairsSortedAndUnique(t *testing.T) {
	g := NewGrid(2)
	// A clump inside one cell plus neighbours across boundaries.
	pts := []Vec2{V(0.1, 0.1), V(0.3, 0.2), V(1.9, 0.1), V(2.1, 0.1), V(-0.1, -0.1), V(0.1, 2.05)}
	for i, p := range pts {
		g.Insert(i, p)
	}
	pairs := g.CandidatePairs(nil)
	seen := map[[2]int]bool{}
	for i, p := range pairs {
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Errorf("pair %v duplicated", p)
		}
		seen[p] = true
		if i > 0 {
			prev := pairs[i-1]
			if prev[0] > p[0] || (prev[0] == p[0] && prev[1] >= p[1]) {
				t.Errorf("pairs not sorted: %v before %v", prev, p)
			}
		}
	}
}

func TestGridResetReuses(t *testing.T) {
	g := NewGrid(1)
	g.Insert(0, V(0, 0))
	g.Insert(1, V(0.5, 0))
	if n := len(g.CandidatePairs(nil)); n != 1 {
		t.Fatalf("pairs = %d, want 1", n)
	}
	g.Reset(1)
	if n := len(g.CandidatePairs(nil)); n != 0 {
		t.Errorf("pairs after reset = %d, want 0", n)
	}
	// New cell size takes effect.
	g.Reset(10)
	if g.CellSize() != 10 {
		t.Errorf("cell size = %v", g.CellSize())
	}
	g.Insert(0, V(0, 0))
	g.Insert(1, V(8, 0))
	if n := len(g.CandidatePairs(nil)); n != 1 {
		t.Errorf("pairs = %d, want 1 at the larger cell", n)
	}
	// Degenerate cell sizes are clamped, not a crash.
	g.Reset(0)
	g.Insert(0, V(1, 1))
}

func TestGridNegativeCoordinates(t *testing.T) {
	// math.Floor (not integer truncation) must assign cells around the
	// origin: -0.5 and +0.5 are different cells at size 1.
	g := NewGrid(1)
	g.Insert(0, V(-0.5, 0.5))
	g.Insert(1, V(0.5, 0.5))
	g.Insert(2, V(-1.5, 0.5))
	got := pairSet(g.CandidatePairs(nil))
	if !got[[2]int{0, 1}] || !got[[2]int{0, 2}] {
		t.Errorf("adjacent cells across the origin missed: %v", got)
	}
}

// TestGridNearProperty checks Near against a brute-force scan: every
// site within CellSize of the query point is returned, and the
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
		for i, p := range pts {
			g.Insert(i, p)
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
		g.Insert(self, q)
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
	g.Insert(7, V(-0.5, -0.5))
	g.Insert(8, V(5, 5))
	buf := []int{42}
	buf = g.Near(buf, V(0.5, 0.5))
	if len(buf) != 2 || buf[0] != 42 || buf[1] != 7 {
		t.Errorf("Near(buf) = %v, want [42 7]", buf)
	}
}
