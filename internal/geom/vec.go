// Package geom provides the 2-D geometric primitives used by the
// simulation substrate: vectors, poses, segments, polygons, and
// polyline paths with arc-length parameterisation.
//
// All quantities are in SI units (metres, radians) unless noted.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a two-dimensional vector or point in the world plane.
type Vec2 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product of v and o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Cross returns the z component of the 3-D cross product of v and o.
// Positive when o is counter-clockwise from v.
func (v Vec2) Cross(o Vec2) float64 { return v.X*o.Y - v.Y*o.X }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared length of v, avoiding a sqrt.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Len() }

// Norm returns the unit vector in the direction of v. The zero vector
// is returned unchanged.
func (v Vec2) Norm() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return Vec2{v.X / l, v.Y / l}
}

// Perp returns v rotated 90 degrees counter-clockwise.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Angle returns the angle of v in radians in (-pi, pi].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Lerp returns the linear interpolation between v and o at parameter
// t in [0, 1]. Values outside the range extrapolate.
func (v Vec2) Lerp(o Vec2, t float64) Vec2 {
	return Vec2{v.X + (o.X-v.X)*t, v.Y + (o.Y-v.Y)*t}
}

// ApproxEq reports whether v and o are within eps of each other in
// both coordinates.
func (v Vec2) ApproxEq(o Vec2, eps float64) bool {
	return math.Abs(v.X-o.X) <= eps && math.Abs(v.Y-o.Y) <= eps
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.2f, %.2f)", v.X, v.Y) }

// Pose is a position plus a heading.
type Pose struct {
	Pos     Vec2    `json:"pos"`
	Heading float64 `json:"headingRad"` // radians, CCW from +X
}

// Forward returns the unit vector in the direction of the heading.
func (p Pose) Forward() Vec2 {
	s, c := math.Sincos(p.Heading)
	return Vec2{c, s}
}

// Advance returns the pose moved d metres along its heading.
func (p Pose) Advance(d float64) Pose {
	return Pose{Pos: p.Pos.Add(p.Forward().Scale(d)), Heading: p.Heading}
}

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
