package geom

import (
	"math"
	"math/bits"
	"slices"
)

// Grid is a uniform-cell broad-phase index over point sites. Callers
// insert sites, then ask either for candidate pairs or for the
// neighbourhood of a point: every site closer than the cell size is
// guaranteed to be reported, at the price of some farther sites (up to
// one full cell diagonal beyond) also appearing. A site's handle is
// its insertion index since the last Reset: 0, 1, 2, … The typical
// cycle is Reset, Insert xN, then CandidatePairs or Near.
//
// The grid is a flat list of (cell, handle) sites. The first query
// after an Insert sorts it by cell, so each occupied cell is one run of
// sites in handle order, and the cells of one grid column lie next to
// each other; queries read those runs. Reset empties the list, so a
// cycle costs what its own sites cost, and the grid reuses its buffers
// across cycles: a warm cycle allocates nothing.
//
// The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell float64
	// sites holds every site inserted since Reset: sorted by (cell,
	// handle) while sorted is set, in insertion order after an Insert.
	// spare is the sort's second buffer.
	sites  []gridSite
	spare  []gridSite
	sorted bool
	// runs are the occupied cells in sorted order; the sort rebuilds
	// them.
	runs []cellRun
	// CandidatePairs' scratch: each handle's run, each run's three
	// column spans of runs, and each run's first unvisited site.
	cellOf []int32
	cols   []colSpans
	next   []int32
}

type cellKey struct{ x, y int32 }

func (a cellKey) less(b cellKey) bool { return a.x < b.x || a.x == b.x && a.y < b.y }

type gridSite struct {
	key    cellKey
	handle int32
}

// cellRun is one occupied cell: its sites are sites[lo:hi].
type cellRun struct {
	key    cellKey
	lo, hi int32
}

// colSpans holds, for columns x-1, x and x+1 of a cell (x, y), the
// span [lo, hi) of runs in rows y-1 to y+1.
type colSpans [3][2]int32

// cellLimit bounds cell coordinates, so a neighbour's coordinate never
// overflows; positions that far out (or NaN) share the edge cells.
const cellLimit = 1 << 30

// NewGrid returns an empty grid with the given cell size. The cell
// size must be positive; it is the distance below which a pair of
// sites is guaranteed to be reported as a candidate.
func NewGrid(cellSize float64) *Grid {
	g := &Grid{}
	g.Reset(cellSize)
	return g
}

// Reset empties the grid and sets a new cell size, keeping the buffers
// for reuse. A non-positive cell size is clamped to a minimal positive
// one so Insert never degenerates.
func (g *Grid) Reset(cellSize float64) {
	if cellSize <= 0 {
		cellSize = math.SmallestNonzeroFloat64
	}
	g.cell = cellSize
	g.sites = g.sites[:0]
	g.runs = g.runs[:0]
	g.sorted = true
}

// Insert adds a site at p. Its handle is the number of sites inserted
// before it since the last Reset.
func (g *Grid) Insert(p Vec2) {
	g.sites = append(g.sites, gridSite{g.key(p), int32(len(g.sites))})
	g.sorted = false
}

func (g *Grid) key(p Vec2) cellKey {
	return cellKey{cellCoord(p.X / g.cell), cellCoord(p.Y / g.cell)}
}

func cellCoord(v float64) int32 {
	v = math.Floor(v)
	if !(v > -cellLimit) { // NaN too
		return -cellLimit
	}
	if v > cellLimit {
		return cellLimit
	}
	return int32(v)
}

// index sorts the sites by (cell, handle) and rebuilds the runs, once
// per batch of inserts. The sort is a radix sort of the cell
// coordinates' offsets from the lowest ones, y before x, up to 8 bits a
// pass and only as many bits as the offsets span. Each pass is a
// stable counting sort and the sites start in handle order, so a
// cell's sites stay in handle order.
func (g *Grid) index() {
	if g.sorted {
		return
	}
	g.sorted = true
	n := len(g.sites)
	minX, minY := g.sites[0].key.x, g.sites[0].key.y
	for _, s := range g.sites[1:] {
		minX, minY = min(minX, s.key.x), min(minY, s.key.y)
	}
	var spanX, spanY uint32 // every bit an offset sets
	for _, s := range g.sites {
		spanX |= uint32(s.key.x - minX)
		spanY |= uint32(s.key.y - minY)
	}
	g.spare = slices.Grow(g.spare[:0], n)[:n]
	for axis, span := range [2]uint32{spanY, spanX} {
		for shift := uint(0); span>>shift != 0; {
			width := uint(min(8, bits.Len32(span>>shift)))
			g.radixPass(axis == 1, minX, minY, shift, width)
			g.sites, g.spare = g.spare, g.sites
			shift += width
		}
	}

	g.runs = g.runs[:0]
	for i, s := range g.sites {
		if r := len(g.runs); r == 0 || g.runs[r-1].key != s.key {
			g.runs = append(g.runs, cellRun{key: s.key, lo: int32(i)})
		}
		g.runs[len(g.runs)-1].hi = int32(i + 1)
	}
}

// radixPass stably sorts sites into spare by one digit, width bits
// from shift, of the x or y offset.
func (g *Grid) radixPass(byX bool, minX, minY int32, shift, width uint) {
	mask := uint32(1)<<width - 1
	digit := func(k cellKey) uint32 {
		if byX {
			return uint32(k.x-minX) >> shift & mask
		}
		return uint32(k.y-minY) >> shift & mask
	}
	var counts [256]int32
	at := counts[:mask+1]
	for _, s := range g.sites {
		at[digit(s.key)]++
	}
	sum := int32(0)
	for d, c := range at {
		at[d] = sum
		sum += c
	}
	for _, s := range g.sites {
		d := digit(s.key)
		g.spare[at[d]] = s
		at[d]++
	}
}

// column returns the span [lo, hi) of runs in cells (x, y-1) to
// (x, y+1), which lie next to each other in sorted order.
func (g *Grid) column(x, y int32) (lo, hi int) {
	from, to := cellKey{x, y - 1}, cellKey{x, y + 1}
	lo, hi = 0, len(g.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.runs[m].key.less(from) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = lo
	for hi < len(g.runs) && !to.less(g.runs[hi].key) {
		hi++
	}
	return lo, hi
}

// Near appends to buf the handles of every site in p's cell and its
// eight neighbours, and returns the extended slice. That is a
// superset of the sites within the cell size of p, and exactly the
// set of sites CandidatePairs would pair with a site inserted at p.
// The order is unspecified.
func (g *Grid) Near(buf []int, p Vec2) []int {
	g.index()
	k := g.key(p)
	for x := k.x - 1; x <= k.x+1; x++ {
		lo, hi := g.column(x, k.y)
		for _, r := range g.runs[lo:hi] {
			for _, s := range g.sites[r.lo:r.hi] {
				buf = append(buf, int(s.handle))
			}
		}
	}
	return buf
}

// CandidatePairs appends to buf every candidate pair (a, b) with
// a < b, sorted lexicographically, and returns the extended slice.
// Each pair appears exactly once. Completeness guarantee: any two
// sites within the cell size of each other form a candidate; pairs
// further apart than 2*sqrt(2) cell sizes never do.
//
// The sites are visited in handle order, and each site's partners are
// merged from the handle-sorted runs of its 3×3 cell block, so the
// pairs come out in order without a sort. Each run keeps a cursor at
// its first unvisited site: when site a is visited, every handle below
// a has been, so the cursors of a's block start exactly at its later
// neighbours.
func (g *Grid) CandidatePairs(buf [][2]int) [][2]int {
	g.index()
	g.spanColumns()
	g.cellOf = slices.Grow(g.cellOf[:0], len(g.sites))[:len(g.sites)]
	g.next = slices.Grow(g.next[:0], len(g.runs))[:len(g.runs)]
	for r, run := range g.runs {
		for _, s := range g.sites[run.lo:run.hi] {
			g.cellOf[s.handle] = int32(r)
		}
		g.next[r] = run.lo
	}
	var heads [9][2]int32 // [cursor, end) into sites, one per non-empty run
	for a := range g.sites {
		r := g.cellOf[a]
		g.next[r]++ // past a itself
		n := 0
		for _, col := range g.cols[r] {
			for q := col[0]; q < col[1]; q++ {
				if g.next[q] < g.runs[q].hi {
					heads[n] = [2]int32{g.next[q], g.runs[q].hi}
					n++
				}
			}
		}
		for n > 0 {
			m := 0
			for q := 1; q < n; q++ {
				if g.sites[heads[q][0]].handle < g.sites[heads[m][0]].handle {
					m = q
				}
			}
			buf = append(buf, [2]int{a, int(g.sites[heads[m][0]].handle)})
			if heads[m][0]++; heads[m][0] == heads[m][1] {
				n--
				heads[m] = heads[n]
			}
		}
	}
	return buf
}

// spanColumns fills cols for every run in one sweep: both ends of a
// column span only move forward as the runs ascend.
func (g *Grid) spanColumns() {
	g.cols = slices.Grow(g.cols[:0], len(g.runs))[:len(g.runs)]
	var lo, hi [3]int
	for r, run := range g.runs {
		for d := range lo {
			from := cellKey{run.key.x + int32(d) - 1, run.key.y - 1}
			to := cellKey{from.x, run.key.y + 1}
			for lo[d] < len(g.runs) && g.runs[lo[d]].key.less(from) {
				lo[d]++
			}
			hi[d] = max(hi[d], lo[d])
			for hi[d] < len(g.runs) && !to.less(g.runs[hi[d]].key) {
				hi[d]++
			}
			g.cols[r][d] = [2]int32{int32(lo[d]), int32(hi[d])}
		}
	}
}
