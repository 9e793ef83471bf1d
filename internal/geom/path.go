package geom

import (
	"errors"
	"fmt"
)

// ErrEmptyPath is returned when an operation requires a path with at
// least one point.
var ErrEmptyPath = errors.New("geom: empty path")

// Path is a polyline with arc-length parameterisation. Paths are the
// primary representation of routes and planned MRM trajectories.
type Path struct {
	pts  []Vec2
	cum  []float64 // cumulative arc length at each point; cum[0]==0
	tot  float64
	name string
}

// NewPath builds a path from the given points. Points are copied.
// Consecutive duplicate points are dropped so every internal segment
// has positive length.
func NewPath(pts ...Vec2) (*Path, error) {
	if len(pts) == 0 {
		return nil, ErrEmptyPath
	}
	p := &Path{pts: make([]Vec2, 0, len(pts))}
	for _, q := range pts {
		if n := len(p.pts); n > 0 && p.pts[n-1].ApproxEq(q, 1e-12) {
			continue
		}
		p.pts = append(p.pts, q)
	}
	p.cum = make([]float64, len(p.pts))
	for i := 1; i < len(p.pts); i++ {
		p.cum[i] = p.cum[i-1] + p.pts[i].Dist(p.pts[i-1])
	}
	p.tot = p.cum[len(p.cum)-1]
	return p, nil
}

// MustPath is NewPath that panics on error; for statically known
// literals in tests and scenario construction.
func MustPath(pts ...Vec2) *Path {
	p, err := NewPath(pts...)
	if err != nil {
		panic(fmt.Sprintf("geom.MustPath: %v", err))
	}
	return p
}

// SetName attaches a diagnostic name to the path and returns it.
func (p *Path) SetName(name string) *Path {
	p.name = name
	return p
}

// Name returns the diagnostic name of the path, or "".
func (p *Path) Name() string { return p.name }

// Len returns the total arc length of the path.
func (p *Path) Len() float64 { return p.tot }

// Points returns a copy of the path's points.
func (p *Path) Points() []Vec2 {
	out := make([]Vec2, len(p.pts))
	copy(out, p.pts)
	return out
}

// End returns the last point of the path.
func (p *Path) End() Vec2 { return p.pts[len(p.pts)-1] }

// PointAt returns the point at arc length s, clamped to [0, Len].
func (p *Path) PointAt(s float64) Vec2 {
	pt, _ := p.PoseAt(s)
	return pt
}

// PoseAt returns the point and tangent heading at arc length s,
// clamped to [0, Len]. For a single-point path the heading is 0.
func (p *Path) PoseAt(s float64) (Vec2, float64) {
	if len(p.pts) == 1 {
		return p.pts[0], 0
	}
	s = Clamp(s, 0, p.tot)
	i := p.segIndex(s)
	a, b := p.pts[i], p.pts[i+1]
	segLen := p.cum[i+1] - p.cum[i]
	t := 0.0
	if segLen > 0 {
		t = (s - p.cum[i]) / segLen
	}
	return a.Lerp(b, t), b.Sub(a).Angle()
}

// segIndex returns the index i of the segment [pts[i], pts[i+1]]
// containing arc length s (binary search).
func (p *Path) segIndex(s float64) int {
	lo, hi := 0, len(p.cum)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if p.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Project returns the arc length along the path of the point closest
// to q, and the distance from q to that point.
func (p *Path) Project(q Vec2) (s, dist float64) {
	if len(p.pts) == 1 {
		return 0, p.pts[0].Dist(q)
	}
	best := -1.0
	bestS := 0.0
	for i := 0; i+1 < len(p.pts); i++ {
		seg := Segment{p.pts[i], p.pts[i+1]}
		cp, t := seg.ClosestPoint(q)
		d := cp.Dist(q)
		if best < 0 || d < best {
			best = d
			bestS = p.cum[i] + t*(p.cum[i+1]-p.cum[i])
		}
	}
	return bestS, best
}

// SubPath returns a new path covering arc lengths [from, to] of p.
// The bounds are clamped and must satisfy from <= to after clamping.
func (p *Path) SubPath(from, to float64) (*Path, error) {
	from = Clamp(from, 0, p.tot)
	to = Clamp(to, 0, p.tot)
	if from > to {
		return nil, fmt.Errorf("geom: subpath bounds reversed (%.2f > %.2f)", from, to)
	}
	pts := []Vec2{p.PointAt(from)}
	for i, c := range p.cum {
		if c > from && c < to {
			pts = append(pts, p.pts[i])
		}
	}
	pts = append(pts, p.PointAt(to))
	return NewPath(pts...)
}
