package geom

import (
	"math"
	"testing"
)

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{V(0, 0), V(10, 0)}
	cp, tt := s.ClosestPoint(V(3, 5))
	if !cp.ApproxEq(V(3, 0), 1e-12) || math.Abs(tt-0.3) > 1e-12 {
		t.Errorf("ClosestPoint = %v t=%v, want (3,0) t=0.3", cp, tt)
	}
	// Beyond endpoint clamps.
	cp, tt = s.ClosestPoint(V(-4, 2))
	if !cp.ApproxEq(V(0, 0), 1e-12) || tt != 0 {
		t.Errorf("ClosestPoint clamp = %v t=%v, want origin t=0", cp, tt)
	}
	// Degenerate segment.
	d := Segment{V(1, 1), V(1, 1)}
	cp, _ = d.ClosestPoint(V(5, 5))
	if cp != V(1, 1) {
		t.Errorf("degenerate ClosestPoint = %v, want (1,1)", cp)
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Segment{V(0, 0), V(10, 0)}
	if d := s.Dist(V(5, 3)); math.Abs(d-3) > 1e-12 {
		t.Errorf("Dist = %v, want 3", d)
	}
	if d := s.Dist(V(13, 4)); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist past end = %v, want 5", d)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		a, b Segment
		want bool
	}{
		{Segment{V(0, 0), V(10, 0)}, Segment{V(5, -5), V(5, 5)}, true},
		{Segment{V(0, 0), V(10, 0)}, Segment{V(5, 1), V(5, 5)}, false},
		{Segment{V(0, 0), V(10, 0)}, Segment{V(10, 0), V(20, 0)}, true}, // touching endpoint
		{Segment{V(0, 0), V(4, 0)}, Segment{V(2, 0), V(6, 0)}, true},    // collinear overlap
		{Segment{V(0, 0), V(4, 0)}, Segment{V(5, 0), V(6, 0)}, false},   // collinear disjoint
	}
	for i, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentDist(t *testing.T) {
	a := Segment{V(0, 0), V(10, 0)}
	b := Segment{V(0, 3), V(10, 3)}
	if d := SegmentDist(a, b); math.Abs(d-3) > 1e-12 {
		t.Errorf("SegmentDist = %v, want 3", d)
	}
	c := Segment{V(5, -1), V(5, 1)}
	if d := SegmentDist(a, c); d != 0 {
		t.Errorf("crossing SegmentDist = %v, want 0", d)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(V(4, 6), V(0, 2)) // corners given unordered
	if r.Min != V(0, 2) || r.Max != V(4, 6) {
		t.Fatalf("NewRect normalized = %+v", r)
	}
	if !r.Contains(V(2, 4)) || r.Contains(V(5, 4)) {
		t.Error("Contains misbehaves")
	}
	if r.Center() != V(2, 4) {
		t.Errorf("Center = %v", r.Center())
	}
	if r.Width() != 4 || r.Height() != 4 {
		t.Error("Width/Height wrong")
	}
	e := r.Expand(1)
	if e.Min != V(-1, 1) || e.Max != V(5, 7) {
		t.Errorf("Expand = %+v", e)
	}
	if !r.Overlaps(NewRect(V(3, 5), V(10, 10))) {
		t.Error("Overlaps should be true")
	}
	if r.Overlaps(NewRect(V(5, 7), V(10, 10))) {
		t.Error("Overlaps should be false")
	}
	if d := r.Dist(V(7, 10)); math.Abs(d-5) > 1e-12 {
		t.Errorf("Rect.Dist = %v, want 5", d)
	}
	if d := r.Dist(V(1, 3)); d != 0 {
		t.Errorf("inside Rect.Dist = %v, want 0", d)
	}
}

func TestPolygonContains(t *testing.T) {
	tri := Polygon{Vertices: []Vec2{V(0, 0), V(10, 0), V(0, 10)}}
	if !tri.Contains(V(2, 2)) {
		t.Error("point inside triangle reported outside")
	}
	if tri.Contains(V(8, 8)) {
		t.Error("point outside triangle reported inside")
	}
	var empty Polygon
	if empty.Contains(V(0, 0)) {
		t.Error("empty polygon contains nothing")
	}
}

func TestPolygonBounds(t *testing.T) {
	pg := Polygon{Vertices: []Vec2{V(1, 5), V(-2, 0), V(4, 3)}}
	b := pg.Bounds()
	if b.Min != V(-2, 0) || b.Max != V(4, 5) {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestOrientedBoxOverlaps(t *testing.T) {
	a := OrientedBox{Center: V(0, 0), Heading: 0, Length: 4, Width: 2}
	b := OrientedBox{Center: V(3, 0), Heading: 0, Length: 4, Width: 2}
	if !a.Overlaps(b) {
		t.Error("adjacent boxes should overlap")
	}
	c := OrientedBox{Center: V(10, 0), Heading: 0, Length: 4, Width: 2}
	if a.Overlaps(c) {
		t.Error("distant boxes should not overlap")
	}
	// Rotated box that slips between: diagonal at 45 degrees far corner.
	d := OrientedBox{Center: V(0, 3), Heading: math.Pi / 4, Length: 4, Width: 2}
	if !a.Overlaps(d) {
		t.Error("rotated touching box should overlap")
	}
}

func TestOrientedBoxDist(t *testing.T) {
	a := OrientedBox{Center: V(0, 0), Heading: 0, Length: 4, Width: 2}
	b := OrientedBox{Center: V(8, 0), Heading: 0, Length: 4, Width: 2}
	if d := a.Dist(b); math.Abs(d-4) > 1e-9 {
		t.Errorf("Dist = %v, want 4", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Errorf("self Dist = %v, want 0", d)
	}
	// A box with zero length still has a separating axis along its
	// heading: two such boxes 13.15 m apart along it do not overlap.
	p := OrientedBox{Center: V(1, 2), Heading: 0.7, Length: 0, Width: 4}
	q := p
	q.Center = p.Center.Add(Pose{Heading: 0.7}.Forward().Scale(13.15))
	if p.Overlaps(q) || q.Overlaps(p) {
		t.Error("zero-length boxes 13.15 m apart along their heading overlap")
	}
	if d := p.Dist(q); math.Abs(d-13.15) > 1e-9 {
		t.Errorf("zero-length Dist = %v, want 13.15", d)
	}
}

func TestOrientedBoxCorners(t *testing.T) {
	b := OrientedBox{Center: V(0, 0), Heading: 0, Length: 4, Width: 2}
	c := b.Corners()
	want := [4]Vec2{V(2, 1), V(-2, 1), V(-2, -1), V(2, -1)}
	for i := range c {
		if !c[i].ApproxEq(want[i], 1e-12) {
			t.Errorf("corner %d = %v, want %v", i, c[i], want[i])
		}
	}
}
