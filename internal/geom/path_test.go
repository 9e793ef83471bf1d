package geom

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewPathEmpty(t *testing.T) {
	if _, err := NewPath(); !errors.Is(err, ErrEmptyPath) {
		t.Fatalf("err = %v, want ErrEmptyPath", err)
	}
}

func TestPathDedup(t *testing.T) {
	p := MustPath(V(0, 0), V(0, 0), V(10, 0))
	if got := len(p.Points()); got != 2 {
		t.Errorf("deduped points = %d, want 2", got)
	}
}

func TestPathLen(t *testing.T) {
	p := MustPath(V(0, 0), V(3, 4), V(3, 10))
	if math.Abs(p.Len()-11) > 1e-12 {
		t.Errorf("Len = %v, want 11", p.Len())
	}
}

func TestPathPointAt(t *testing.T) {
	p := MustPath(V(0, 0), V(10, 0), V(10, 10))
	cases := []struct {
		s    float64
		want Vec2
	}{
		{0, V(0, 0)},
		{5, V(5, 0)},
		{10, V(10, 0)},
		{15, V(10, 5)},
		{20, V(10, 10)},
		{-5, V(0, 0)},    // clamp low
		{100, V(10, 10)}, // clamp high
	}
	for _, c := range cases {
		if got := p.PointAt(c.s); !got.ApproxEq(c.want, 1e-9) {
			t.Errorf("PointAt(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPathPoseAt(t *testing.T) {
	p := MustPath(V(0, 0), V(10, 0), V(10, 10))
	_, h := p.PoseAt(5)
	if math.Abs(h) > 1e-12 {
		t.Errorf("heading at 5 = %v, want 0", h)
	}
	_, h = p.PoseAt(15)
	if math.Abs(h-math.Pi/2) > 1e-12 {
		t.Errorf("heading at 15 = %v, want pi/2", h)
	}
}

func TestPathSinglePoint(t *testing.T) {
	p := MustPath(V(3, 3))
	if p.Len() != 0 {
		t.Errorf("Len = %v, want 0", p.Len())
	}
	if got := p.PointAt(5); got != V(3, 3) {
		t.Errorf("PointAt = %v, want (3,3)", got)
	}
	s, d := p.Project(V(3, 7))
	if s != 0 || math.Abs(d-4) > 1e-12 {
		t.Errorf("Project = (%v,%v), want (0,4)", s, d)
	}
}

func TestPathProject(t *testing.T) {
	p := MustPath(V(0, 0), V(10, 0), V(10, 10))
	s, d := p.Project(V(4, 2))
	if math.Abs(s-4) > 1e-9 || math.Abs(d-2) > 1e-9 {
		t.Errorf("Project = (%v,%v), want (4,2)", s, d)
	}
	s, d = p.Project(V(12, 8))
	if math.Abs(s-18) > 1e-9 || math.Abs(d-2) > 1e-9 {
		t.Errorf("Project = (%v,%v), want (18,2)", s, d)
	}
}

func TestPathSubPath(t *testing.T) {
	p := MustPath(V(0, 0), V(10, 0), V(10, 10))
	sub, err := p.SubPath(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sub.Len()-10) > 1e-9 {
		t.Errorf("sub Len = %v, want 10", sub.Len())
	}
	if !sub.pts[0].ApproxEq(V(5, 0), 1e-9) || !sub.End().ApproxEq(V(10, 5), 1e-9) {
		t.Errorf("sub endpoints = %v..%v", sub.pts[0], sub.End())
	}
	if _, err := p.SubPath(15, 5); err == nil {
		t.Error("reversed bounds should error")
	}
}

func TestPathName(t *testing.T) {
	p := MustPath(V(0, 0), V(1, 0)).SetName("route-a")
	if p.Name() != "route-a" {
		t.Errorf("Name = %q", p.Name())
	}
}

// Property: for any arc length s in range, projecting PointAt(s) back
// onto the path returns distance ~0.
func TestPathProjectRoundTrip(t *testing.T) {
	p := MustPath(V(0, 0), V(50, 0), V(50, 40), V(120, 40))
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		s := math.Mod(math.Abs(raw), p.Len())
		pt := p.PointAt(s)
		_, d := p.Project(pt)
		return d < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cumulative lengths are monotone: PointAt(s1) to PointAt(s2)
// straight-line distance never exceeds |s2-s1|.
func TestPathLipschitz(t *testing.T) {
	p := MustPath(V(0, 0), V(30, 0), V(30, 30), V(0, 30))
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		s1 := math.Mod(math.Abs(a), p.Len())
		s2 := math.Mod(math.Abs(b), p.Len())
		d := p.PointAt(s1).Dist(p.PointAt(s2))
		return d <= math.Abs(s2-s1)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
