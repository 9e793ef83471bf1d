package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2)
	b := V(3, -4)
	if got := a.Add(b); got != V(4, -2) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := a.Sub(b); got != V(-2, 6) {
		t.Errorf("Sub = %v, want (-2,6)", got)
	}
	if got := a.Scale(2); got != V(2, 4) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
	if got := a.Dot(b); got != 1*3+2*(-4) {
		t.Errorf("Dot = %v, want -5", got)
	}
	if got := a.Cross(b); got != 1*(-4)-2*3 {
		t.Errorf("Cross = %v, want -10", got)
	}
	if got := b.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := b.LenSq(); got != 25 {
		t.Errorf("LenSq = %v, want 25", got)
	}
}

func TestVecDist(t *testing.T) {
	if d := V(0, 0).Dist(V(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func TestVecNorm(t *testing.T) {
	n := V(3, 4).Norm()
	if math.Abs(n.Len()-1) > 1e-12 {
		t.Errorf("Norm length = %v, want 1", n.Len())
	}
	if got := (Vec2{}).Norm(); got != (Vec2{}) {
		t.Errorf("zero Norm = %v, want zero", got)
	}
}

func TestVecPerpRotate(t *testing.T) {
	p := V(1, 0).Perp()
	if !p.ApproxEq(V(0, 1), 1e-12) {
		t.Errorf("Perp = %v, want (0,1)", p)
	}
	if a := V(0, 1).Angle(); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Errorf("Angle = %v, want pi/2", a)
	}
}

func TestVecLerp(t *testing.T) {
	got := V(0, 0).Lerp(V(10, 20), 0.25)
	if !got.ApproxEq(V(2.5, 5), 1e-12) {
		t.Errorf("Lerp = %v, want (2.5,5)", got)
	}
}

func TestPoseForwardAdvance(t *testing.T) {
	p := Pose{Pos: V(1, 1), Heading: math.Pi / 2}
	f := p.Forward()
	if !f.ApproxEq(V(0, 1), 1e-12) {
		t.Errorf("Forward = %v, want (0,1)", f)
	}
	q := p.Advance(3)
	if !q.Pos.ApproxEq(V(1, 4), 1e-12) {
		t.Errorf("Advance pos = %v, want (1,4)", q.Pos)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

// Property: normalisation always yields unit length (or zero).
func TestVecProperties(t *testing.T) {
	normLen := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		v := V(x, y)
		n := v.Norm()
		if v == (Vec2{}) {
			return n == (Vec2{})
		}
		l := n.Len()
		return l == 0 || math.Abs(l-1) < 1e-6
	}
	if err := quick.Check(normLen, nil); err != nil {
		t.Error(err)
	}
}
