package agent

import (
	"math"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// Obstacle-hold geometry and timing, the same for every monitor.
const (
	// holdMargin is the distance kept to an obstacle beyond the
	// stopping distance, in metres.
	holdMargin = 8.0
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
	// constituent within the sensor suite's effective range, in any
	// order. Farther targets may be included; Apply filters by range.
	Neighbors func() []sensor.Target
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
func NewObstacleMonitor(c *core.Constituent, neighbors func() []sensor.Target, w *world.World) *ObstacleMonitor {
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
// the sort.
func (m *ObstacleMonitor) blocker() (blocked, inTunnel bool) {
	b := m.C.Body()
	pos := b.Position()
	forward := b.Pose().Forward()
	holdDist := b.StoppingDistance() + holdMargin
	r := m.C.Suite().EffectiveRange()
	var best sensor.Target
	bestDist := 0.0
	for _, t := range m.Neighbors() {
		delta := t.Pos.Sub(pos)
		fd := delta.Dot(forward)
		lat := math.Abs(delta.Cross(forward))
		if !(fd > 0.5 && fd < holdDist && lat < corridorHalfWidth) {
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
