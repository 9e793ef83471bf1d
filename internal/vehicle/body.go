package vehicle

import (
	"errors"
	"math"

	"coopmrm/internal/geom"
)

// ErrSteeringFailed is returned when a new path is commanded while the
// steering actuator is failed.
var ErrSteeringFailed = errors.New("vehicle: steering failed, cannot accept new path")

// Body is the kinematic state of one vehicle: it follows a path with
// bounded acceleration and deceleration and supports actuation-failure
// effects (degraded brakes, dead propulsion, locked steering).
type Body struct {
	spec Spec

	pose  geom.Pose
	speed float64 // m/s along the path

	path    *geom.Path
	pathPos float64 // arc length progressed along path

	targetSpeed float64
	stopDecel   float64 // >0: actively stopping at this decel

	brakeFactor float64 // multiplies available decel; 1 = nominal
	propulsion  bool
	steering    bool

	// moves, when set, counts position changes (see CountMoves).
	moves *uint64
}

// NewBody returns a body at the given pose with nominal actuators and
// zero speed.
func NewBody(spec Spec, pose geom.Pose) *Body {
	b := new(Body)
	b.Reinit(spec, pose)
	return b
}

// Reinit resets the body in place to the just-constructed state —
// the warm-rig path reuses body allocations across runs. Fresh
// construction routes through the same assignment (NewBody is Reinit
// on a zero struct), so a reinitialised body is identical to a fresh
// one by construction: that includes having no move counter.
func (b *Body) Reinit(spec Spec, pose geom.Pose) {
	*b = Body{
		spec:        spec,
		pose:        pose,
		brakeFactor: 1,
		propulsion:  true,
		steering:    true,
	}
}

// Spec returns the body's static spec.
func (b *Body) Spec() Spec { return b.spec }

// Pose returns the current pose.
func (b *Body) Pose() geom.Pose { return b.pose }

// Position returns the current position.
func (b *Body) Position() geom.Vec2 { return b.pose.Pos }

// Speed returns the current speed in m/s.
func (b *Body) Speed() float64 { return b.speed }

// Stopped reports whether the vehicle is (effectively) stationary.
func (b *Body) Stopped() bool { return b.speed < 1e-6 }

// Path returns the current path, or nil when idle.
func (b *Body) Path() *geom.Path { return b.path }

// PathProgress returns the arc length progressed along the current
// path, and the path total (0, 0 when idle).
func (b *Body) PathProgress() (done, total float64) {
	if b.path == nil {
		return 0, 0
	}
	return b.pathPos, b.path.Len()
}

// RemainingPath returns the arc length left on the current path.
func (b *Body) RemainingPath() float64 {
	if b.path == nil {
		return 0
	}
	return b.path.Len() - b.pathPos
}

// Arrived reports whether the body has reached the end of its path
// and stopped.
func (b *Body) Arrived() bool {
	return b.path != nil && b.RemainingPath() < 0.05 && b.Stopped()
}

// Idle reports whether the body has no path.
func (b *Body) Idle() bool { return b.path == nil }

// SetPath assigns a new path to follow from its start; the body's
// position snaps to the nearest point on the path (vehicles are
// dispatched on paths that begin at their location). Fails when
// steering is inoperative.
func (b *Body) SetPath(p *geom.Path, targetSpeed float64) error {
	if !b.steering {
		return ErrSteeringFailed
	}
	b.path = p
	s, _ := p.Project(b.pose.Pos)
	b.pathPos = s
	b.targetSpeed = targetSpeed
	b.stopDecel = 0
	// Align the heading with the new path immediately (site vehicles
	// turn in place); otherwise a stationary vehicle would keep
	// "facing" an obstacle its new route avoids.
	if p.Len() > 0 {
		_, heading := p.PoseAt(s)
		b.pose.Heading = heading
	}
	return nil
}

// ClearPath drops the current path (after arrival or abort).
func (b *Body) ClearPath() {
	b.path = nil
	b.pathPos = 0
	b.targetSpeed = 0
	b.stopDecel = 0
}

// SetTargetSpeed adjusts the cruise speed (clamped to spec and current
// capability ceiling imposed by the caller).
func (b *Body) SetTargetSpeed(v float64) {
	b.targetSpeed = geom.Clamp(v, 0, b.spec.MaxSpeed)
	b.stopDecel = 0
}

// TargetSpeed returns the commanded cruise speed.
func (b *Body) TargetSpeed() float64 { return b.targetSpeed }

// CommandStop initiates a controlled stop at the service deceleration
// (scaled by any brake degradation).
func (b *Body) CommandStop() {
	b.stopDecel = b.spec.ServiceDecel * b.brakeFactor
	if b.stopDecel <= 0 {
		b.stopDecel = 1e-9 // coasting only
	}
	b.targetSpeed = 0
}

// EmergencyStop initiates a hard stop at the emergency deceleration
// (scaled by any brake degradation).
func (b *Body) EmergencyStop() {
	b.stopDecel = b.spec.EmergencyDecel * b.brakeFactor
	if b.stopDecel <= 0 {
		b.stopDecel = 1e-9
	}
	b.targetSpeed = 0
}

// Stopping reports whether a stop command is active.
func (b *Body) Stopping() bool { return b.stopDecel > 0 }

// StoppingDistance returns the distance the vehicle needs to stop from
// its current speed with the service brake (as currently degraded).
func (b *Body) StoppingDistance() float64 {
	return StoppingDistance(b.speed, b.spec.ServiceDecel*b.brakeFactor)
}

// DegradeBrakes scales the available deceleration by factor in [0, 1].
func (b *Body) DegradeBrakes(factor float64) {
	b.brakeFactor = geom.Clamp(factor, 0, 1)
}

// BrakeFactor returns the current brake effectiveness in [0, 1].
func (b *Body) BrakeFactor() float64 { return b.brakeFactor }

// DisablePropulsion prevents further acceleration (the vehicle can
// still brake/coast to a stop).
func (b *Body) DisablePropulsion() { b.propulsion = false }

// EnablePropulsion restores acceleration (after repair).
func (b *Body) EnablePropulsion() { b.propulsion = true }

// PropulsionOK reports whether the vehicle can accelerate.
func (b *Body) PropulsionOK() bool { return b.propulsion }

// LockSteering prevents accepting new paths (the vehicle can still
// finish stopping along its current path tangent).
func (b *Body) LockSteering() { b.steering = false }

// UnlockSteering restores lateral control.
func (b *Body) UnlockSteering() { b.steering = true }

// SteeringOK reports whether lateral control works.
func (b *Body) SteeringOK() bool { return b.steering }

// CountMoves makes the body increment *n whenever its position may
// have changed — every Teleport, and every Step that moves it — so an
// index over many bodies can tell cheaply that it has gone stale.
// Several bodies may share one counter; nil detaches it.
func (b *Body) CountMoves(n *uint64) { b.moves = n }

func (b *Body) moved() {
	if b.moves != nil {
		*b.moves++
	}
}

// Teleport moves the body instantaneously (scenario setup only).
func (b *Body) Teleport(pose geom.Pose) {
	b.pose = pose
	b.speed = 0
	b.ClearPath()
	b.moved()
}

// Step advances the body by dt seconds: adjust speed toward the
// target under actuator limits, then advance along the path.
func (b *Body) Step(dt float64) {
	if dt <= 0 {
		return
	}
	// Longitudinal control.
	switch {
	case b.stopDecel > 0:
		b.speed = math.Max(0, b.speed-b.stopDecel*dt)
	case b.speed < b.targetSpeed && b.propulsion:
		b.speed = math.Min(b.targetSpeed, b.speed+b.spec.MaxAccel*dt)
	case b.speed > b.targetSpeed:
		decel := b.spec.ServiceDecel * b.brakeFactor
		if decel <= 0 {
			decel = 0.05 // rolling resistance
		}
		b.speed = math.Max(b.targetSpeed, b.speed-decel*dt)
	}
	if b.speed > b.spec.MaxSpeed {
		b.speed = b.spec.MaxSpeed
	}
	// Decelerate to stop at path end: do not overshoot.
	if b.path != nil {
		remaining := b.RemainingPath()
		decel := b.spec.ServiceDecel * b.brakeFactor
		if b.stopDecel == 0 && decel > 0 && remaining <= StoppingDistance(b.speed, decel)+b.speed*dt {
			b.speed = math.Max(0, b.speed-decel*dt)
		}
		advance := b.speed * dt
		if advance > remaining {
			advance = remaining
			b.speed = 0
		}
		b.pathPos += advance
		pos, heading := b.path.PoseAt(b.pathPos)
		if pos != b.pose.Pos {
			b.moved()
		}
		b.pose = geom.Pose{Pos: pos, Heading: heading}
		if b.path.Len() == 0 {
			// Single-point path: we are there.
			b.speed = 0
		}
	}
}

// Footprint returns the oriented-box footprint of the vehicle for
// collision and proximity checks.
func (b *Body) Footprint() geom.OrientedBox {
	return geom.OrientedBox{
		Center:  b.pose.Pos,
		Heading: b.pose.Heading,
		Length:  b.spec.Length,
		Width:   b.spec.Width,
	}
}
