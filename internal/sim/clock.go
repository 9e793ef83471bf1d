// Package sim provides the deterministic fixed-step simulation engine
// that every scenario runs on: a simulated clock, a seeded random
// source, an entity registry stepped in stable order, and a structured
// event log. A run goes to a horizon (Engine.RunFor) or tick by tick
// (Engine.RunTick).
//
// Determinism contract: for a given configuration and seed, a run
// produces bit-identical event logs. All randomness must be drawn from
// the engine's RNG, entities are stepped in registration order, and no
// wall-clock time is consulted.
package sim

import (
	"fmt"
	"time"
)

// Clock tracks simulated time advanced in fixed steps.
type Clock struct {
	now  time.Duration
	step time.Duration
	tick int64
}

// NewClock returns a clock advancing by step per tick. A non-positive
// step defaults to 100 ms.
func NewClock(step time.Duration) *Clock {
	if step <= 0 {
		step = 100 * time.Millisecond
	}
	return &Clock{step: step}
}

// Now returns the current simulated time since the start of the run.
func (c *Clock) Now() time.Duration { return c.now }

// Step returns the fixed step duration.
func (c *Clock) Step() time.Duration { return c.step }

// StepSeconds returns the step as a float64 number of seconds,
// convenient for kinematic integration.
func (c *Clock) StepSeconds() float64 { return c.step.Seconds() }

// Tick returns the number of completed ticks.
func (c *Clock) Tick() int64 { return c.tick }

// Advance moves the clock forward one step.
func (c *Clock) Advance() {
	c.now += c.step
	c.tick++
}

// Reset rewinds the clock to the start of a run, keeping the step.
func (c *Clock) Reset() {
	c.now = 0
	c.tick = 0
}

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("t=%s (tick %d)", c.now, c.tick)
}
