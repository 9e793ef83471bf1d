package geom

import "math"

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec2
}

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// ClosestPoint returns the point on the segment closest to p, and the
// parameter t in [0, 1] such that the point equals A.Lerp(B, t).
func (s Segment) ClosestPoint(p Vec2) (Vec2, float64) {
	d := s.B.Sub(s.A)
	l2 := d.LenSq()
	if l2 == 0 {
		return s.A, 0
	}
	t := Clamp(p.Sub(s.A).Dot(d)/l2, 0, 1)
	return s.A.Lerp(s.B, t), t
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Vec2) float64 {
	cp, _ := s.ClosestPoint(p)
	return cp.Dist(p)
}

// Intersects reports whether segments s and o intersect, including
// touching endpoints and collinear overlap.
func (s Segment) Intersects(o Segment) bool {
	d1 := orient(o.A, o.B, s.A)
	d2 := orient(o.A, o.B, s.B)
	d3 := orient(s.A, s.B, o.A)
	d4 := orient(s.A, s.B, o.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(o.A, o.B, s.A)) ||
		(d2 == 0 && onSegment(o.A, o.B, s.B)) ||
		(d3 == 0 && onSegment(s.A, s.B, o.A)) ||
		(d4 == 0 && onSegment(s.A, s.B, o.B))
}

// SegmentDist returns the minimum distance between two segments.
func SegmentDist(a, b Segment) float64 {
	if a.Intersects(b) {
		return 0
	}
	d := a.Dist(b.A)
	if v := a.Dist(b.B); v < d {
		d = v
	}
	if v := b.Dist(a.A); v < d {
		d = v
	}
	if v := b.Dist(a.B); v < d {
		d = v
	}
	return d
}

func orient(a, b, c Vec2) float64 { return b.Sub(a).Cross(c.Sub(a)) }

// onSegment assumes a, b, c are collinear and reports whether c lies
// on segment ab.
func onSegment(a, b, c Vec2) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// Rect is an axis-aligned rectangle defined by its min and max corner.
type Rect struct {
	Min, Max Vec2
}

// NewRect returns a rectangle with normalized corners.
func NewRect(a, b Vec2) Rect {
	return Rect{
		Min: Vec2{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Vec2{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the centre point of r.
func (r Rect) Center() Vec2 { return r.Min.Lerp(r.Max, 0.5) }

// Width returns the extent of r along X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Expand returns r grown by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{
		Min: Vec2{r.Min.X - m, r.Min.Y - m},
		Max: Vec2{r.Max.X + m, r.Max.Y + m},
	}
}

// Overlaps reports whether r and o share any area (or boundary).
func (r Rect) Overlaps(o Rect) bool {
	return r.Min.X <= o.Max.X && r.Max.X >= o.Min.X &&
		r.Min.Y <= o.Max.Y && r.Max.Y >= o.Min.Y
}

// Dist returns the distance from p to the rectangle (0 if inside).
func (r Rect) Dist(p Vec2) float64 {
	dx := math.Max(math.Max(r.Min.X-p.X, 0), p.X-r.Max.X)
	dy := math.Max(math.Max(r.Min.Y-p.Y, 0), p.Y-r.Max.Y)
	return math.Hypot(dx, dy)
}

// Polygon is a simple polygon given by its vertices in order.
type Polygon struct {
	Vertices []Vec2
}

// Contains reports whether p is inside the polygon (ray casting;
// boundary points may report either way).
func (pg Polygon) Contains(p Vec2) bool {
	n := len(pg.Vertices)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := pg.Vertices[i], pg.Vertices[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) &&
			p.X < (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y)+vi.X {
			inside = !inside
		}
	}
	return inside
}

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg.Vertices) == 0 {
		return Rect{}
	}
	r := Rect{Min: pg.Vertices[0], Max: pg.Vertices[0]}
	for _, v := range pg.Vertices[1:] {
		r.Min.X = math.Min(r.Min.X, v.X)
		r.Min.Y = math.Min(r.Min.Y, v.Y)
		r.Max.X = math.Max(r.Max.X, v.X)
		r.Max.Y = math.Max(r.Max.Y, v.Y)
	}
	return r
}

// OrientedBox is a rectangle with arbitrary orientation, used as a
// vehicle footprint.
type OrientedBox struct {
	Center  Vec2
	Heading float64 // radians
	Length  float64 // extent along heading
	Width   float64 // extent across heading
}

// Corners returns the four corners of the box in CCW order.
func (b OrientedBox) Corners() [4]Vec2 {
	return b.corners(Pose{Heading: b.Heading}.Forward())
}

// corners is Corners given the unit vector f along the box's heading.
func (b OrientedBox) corners(f Vec2) [4]Vec2 {
	l := f.Scale(b.Length / 2)
	s := f.Perp().Scale(b.Width / 2)
	return [4]Vec2{
		b.Center.Add(l).Add(s),
		b.Center.Sub(l).Add(s),
		b.Center.Sub(l).Sub(s),
		b.Center.Add(l).Sub(s),
	}
}

// Overlaps reports whether two oriented boxes overlap, using the
// separating axis theorem. Each box's axes come from its heading, so
// a box with zero length or width still has both.
func (b OrientedBox) Overlaps(o OrientedBox) bool {
	fa := Pose{Heading: b.Heading}.Forward()
	fb := Pose{Heading: o.Heading}.Forward()
	ca := b.corners(fa)
	cb := o.corners(fb)
	for _, ax := range [4]Vec2{fa, fa.Perp(), fb, fb.Perp()} {
		minA, maxA := projectCorners(ca, ax)
		minB, maxB := projectCorners(cb, ax)
		if maxA < minB || maxB < minA {
			return false
		}
	}
	return true
}

// Dist returns a conservative distance between the two boxes: the
// minimum distance between their edge segments (0 when overlapping).
func (b OrientedBox) Dist(o OrientedBox) float64 {
	if b.Overlaps(o) {
		return 0
	}
	ca := b.Corners()
	cb := o.Corners()
	best := math.Inf(1)
	for i := 0; i < 4; i++ {
		sa := Segment{ca[i], ca[(i+1)%4]}
		for j := 0; j < 4; j++ {
			sb := Segment{cb[j], cb[(j+1)%4]}
			if d := SegmentDist(sa, sb); d < best {
				best = d
			}
		}
	}
	return best
}

func projectCorners(c [4]Vec2, ax Vec2) (lo, hi float64) {
	lo = c[0].Dot(ax)
	hi = lo
	for _, p := range c[1:] {
		v := p.Dot(ax)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
