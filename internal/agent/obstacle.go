package agent

import (
	"math"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// Obstacle-hold geometry and timing, the same for every monitor.
const (
	// holdMargin is the distance kept to an obstacle beyond the
	// stopping distance, in metres.
	holdMargin = 8.0
	// corridorStart is where the obstacle check begins ahead of the
	// vehicle's position, in metres.
	corridorStart = 0.5
	// corridorHalfWidth is the lateral reach of the obstacle check,
	// in metres.
	corridorHalfWidth = 2.5
	// passWindow is how long a pass-around suppresses holding.
	passWindow = 6 * time.Second
)

// ObstacleMonitor implements the operational-level collision
// avoidance shared by the task agents: brake for any detected
// constituent inside the forward corridor within stopping distance
// plus a margin. Holds against obstacles outside tunnel zones time
// out after Patience and the vehicle passes around (the lateral
// manoeuvre is abstracted away by the 1-D road model); obstacles
// inside tunnel zones block indefinitely.
type ObstacleMonitor struct {
	C *core.Constituent
	// Neighbors returns candidate obstacles: at least every other
	// constituent whose position lies in the axis-aligned box [lo, hi],
	// in any order. Targets outside it may be included; Apply filters
	// by corridor and range.
	Neighbors func(lo, hi geom.Vec2) []sensor.Target
	// World enables the tunnel distinction; nil makes every hold hard.
	World *world.World
	// Patience is how long a hold outside tunnels lasts before the
	// vehicle passes around (8 s from NewObstacleMonitor).
	Patience time.Duration

	holding   bool
	holdStart time.Duration
	passUntil time.Duration
}

// NewObstacleMonitor returns a monitor with the default 8 s patience.
func NewObstacleMonitor(c *core.Constituent, neighbors func(lo, hi geom.Vec2) []sensor.Target, w *world.World) *ObstacleMonitor {
	return &ObstacleMonitor{C: c, Neighbors: neighbors, World: w, Patience: 8 * time.Second}
}

// Apply evaluates the corridor and sets/clears the constituent's
// obstacle hold.
func (m *ObstacleMonitor) Apply(env *sim.Env) {
	c := m.C
	if m.Neighbors == nil {
		return
	}
	now := env.Clock.Now()
	if now < m.passUntil {
		c.HoldForObstacle(false)
		return
	}
	blocked, inTunnel := m.blocker()
	if !blocked {
		m.holding = false
		c.HoldForObstacle(false)
		return
	}
	if !m.holding {
		m.holding = true
		m.holdStart = now
	}
	if !inTunnel && now-m.holdStart >= m.Patience {
		m.holding = false
		m.passUntil = now + passWindow
		c.HoldForObstacle(false)
		return
	}
	c.HoldForObstacle(true)
}

// blocker reports whether a target blocks the forward corridor and,
// if so, whether the blocker stands in a tunnel zone. Among the
// corridor targets within the suite's effective range the blocker is
// the one with the least (distance, ID): the first corridor hit of
// the detections sorted nearest first with ties by ID, found without
// the sort. It asks the feed only for the corridor's box, which holds
// every target that can pass the test; the pick does not depend on
// the order or on the targets that fail it.
func (m *ObstacleMonitor) blocker() (blocked, inTunnel bool) {
	b := m.C.Body()
	pos := b.Position()
	forward := b.Pose().Forward()
	holdDist := b.StoppingDistance() + holdMargin
	r := m.C.Suite().EffectiveRange()
	reach := holdDist
	if r < holdDist { // not min: d > r keeps a target at a NaN range, and so must the box
		reach = r
	}
	var best sensor.Target
	bestDist := 0.0
	for _, t := range m.Neighbors(corridorBox(pos, forward, reach)) {
		delta := t.Pos.Sub(pos)
		fd := delta.Dot(forward)
		lat := math.Abs(delta.Cross(forward))
		if !(fd > corridorStart && fd < holdDist && lat < corridorHalfWidth) {
			continue
		}
		d := pos.Dist(t.Pos)
		if d > r || (blocked && (d > bestDist || (d == bestDist && t.ID >= best.ID))) {
			continue
		}
		blocked, best, bestDist = true, t, d
	}
	if !blocked {
		return false, false
	}
	if m.World == nil {
		return true, true // without a world, all holds are hard
	}
	return true, m.World.HasZoneKindAt(world.ZoneTunnel, best.Pos)
}

// corridorBox returns the axis-aligned bounding box of the corridor
// from corridorStart to reach metres along forward and
// corridorHalfWidth across it. A target that passes blocker's test
// lies in it: its forward distance is above corridorStart, and below
// reach because no target is nearer along forward than it is in
// distance. The box is padded by a billionth of the coordinates'
// magnitude, far above the float rounding of those tests and of the
// corners, so rounding never cuts such a target off.
func corridorBox(pos, forward geom.Vec2, reach float64) (lo, hi geom.Vec2) {
	near, far := pos.Add(forward.Scale(corridorStart)), pos.Add(forward.Scale(reach))
	pad := 1e-9 * (1 + math.Abs(pos.X) + math.Abs(pos.Y) + math.Abs(reach))
	ext := geom.V(corridorHalfWidth*math.Abs(forward.Y)+pad, corridorHalfWidth*math.Abs(forward.X)+pad)
	lo = geom.V(min(near.X, far.X), min(near.Y, far.Y)).Sub(ext)
	hi = geom.V(max(near.X, far.X), max(near.Y, far.Y)).Add(ext)
	return lo, hi
}
