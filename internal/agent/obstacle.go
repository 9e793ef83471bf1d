package agent

import (
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
	C         *core.Constituent
	Neighbors func() []sensor.Target
	// World enables the tunnel distinction; nil makes every hold hard.
	World *world.World
	// Patience is how long a hold outside tunnels lasts before the
	// vehicle passes around (8 s from NewObstacleMonitor).
	Patience time.Duration

	holding   bool
	holdStart time.Duration
	passUntil time.Duration
	// detBuf is per-tick scratch for the detection pass, reused so a
	// steady-state Apply allocates nothing.
	detBuf []sensor.Detection
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
	pos := c.Body().Position()
	forward := c.Body().Pose().Forward()
	holdDist := c.Body().StoppingDistance() + holdMargin
	blocked := false
	inTunnel := false
	m.detBuf = c.Suite().DetectInto(m.detBuf[:0], pos, m.Neighbors())
	for _, d := range m.detBuf {
		delta := d.Pos.Sub(pos)
		fd := delta.Dot(forward)
		lat := delta.Cross(forward)
		if lat < 0 {
			lat = -lat
		}
		if fd > 0.5 && fd < holdDist && lat < corridorHalfWidth {
			blocked = true
			if m.World != nil {
				inTunnel = m.World.HasZoneKindAt(world.ZoneTunnel, d.Pos)
			} else {
				inTunnel = true // without a world, all holds are hard
			}
			break
		}
	}
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
