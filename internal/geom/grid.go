package geom

import (
	"math"
	"slices"
)

// Grid is a uniform-cell broad-phase index over indexed point sites.
// Callers insert sites (an integer handle plus a position), then ask
// for candidate pairs: every unordered pair whose sites lie closer
// than the cell size is guaranteed to be enumerated, at the price of
// some farther pairs (up to one full cell diagonal beyond) also
// appearing. The typical cycle is Reset, Insert xN, CandidatePairs —
// a Grid reuses its internal allocations across cycles, so a per-tick
// caller amortises to near-zero garbage.
//
// The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell  float64
	cells map[gridKey][]int
}

type gridKey struct{ x, y int }

// NewGrid returns an empty grid with the given cell size. The cell
// size must be positive; it is the distance below which a pair of
// sites is guaranteed to be reported as a candidate.
func NewGrid(cellSize float64) *Grid {
	g := &Grid{cells: make(map[gridKey][]int)}
	g.Reset(cellSize)
	return g
}

// Reset empties the grid and sets a new cell size, keeping the bucket
// allocations for reuse. A non-positive cell size is clamped to a
// minimal positive one so Insert never degenerates.
func (g *Grid) Reset(cellSize float64) {
	if cellSize <= 0 {
		cellSize = math.SmallestNonzeroFloat64
	}
	g.cell = cellSize
	for k, bucket := range g.cells {
		g.cells[k] = bucket[:0]
	}
}

// CellSize returns the current cell size.
func (g *Grid) CellSize() float64 { return g.cell }

// Insert adds a site with the given handle at p. Handles are opaque
// to the grid; inserting the same handle twice indexes it twice.
func (g *Grid) Insert(handle int, p Vec2) {
	k := gridKey{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
	g.cells[k] = append(g.cells[k], handle)
}

// CandidatePairs appends to buf every candidate pair (a, b) with
// a < b, sorted lexicographically, and returns the extended slice.
// Each pair appears exactly once. Completeness guarantee: any two
// sites within CellSize of each other form a candidate; pairs further
// apart than 2*sqrt(2)*CellSize never do.
func (g *Grid) CandidatePairs(buf [][2]int) [][2]int {
	start := len(buf)
	// Forward half-neighbourhood: pairing each cell with itself and
	// these four neighbours visits every adjacent cell pair once.
	offsets := [4]gridKey{{1, -1}, {1, 0}, {1, 1}, {0, 1}}
	for k, bucket := range g.cells {
		if len(bucket) == 0 {
			continue
		}
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				buf = append(buf, orderPair(bucket[i], bucket[j]))
			}
		}
		for _, off := range offsets {
			nb := g.cells[gridKey{k.x + off.x, k.y + off.y}]
			for _, a := range bucket {
				for _, b := range nb {
					buf = append(buf, orderPair(a, b))
				}
			}
		}
	}
	// slices.SortFunc rather than sort.Slice: the reflect-based
	// swapper of the latter allocates on every call, and this sort
	// runs once per tick on the proximity hot path.
	slices.SortFunc(buf[start:], func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return buf
}

func orderPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
