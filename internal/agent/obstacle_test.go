package agent

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// parentBlocker is the oracle for ObstacleMonitor.blocker: the rule the
// monitor applied before it dropped the detection sort. It keeps the
// targets within the suite's effective range, sorts them nearest first
// with ties broken by ID, and takes the first one inside the corridor.
func parentBlocker(c *core.Constituent, w *world.World, targets []sensor.Target) (blocked, inTunnel bool) {
	type detection struct {
		id   string
		pos  geom.Vec2
		dist float64
	}
	b := c.Body()
	pos := b.Position()
	forward := b.Pose().Forward()
	holdDist := b.StoppingDistance() + holdMargin
	r := c.Suite().EffectiveRange()
	var dets []detection
	for _, t := range targets {
		if d := pos.Dist(t.Pos); d <= r {
			dets = append(dets, detection{t.ID, t.Pos, d})
		}
	}
	slices.SortFunc(dets, func(a, b detection) int {
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return strings.Compare(a.id, b.id)
	})
	for _, d := range dets {
		delta := d.pos.Sub(pos)
		fd := delta.Dot(forward)
		lat := delta.Cross(forward)
		if lat < 0 {
			lat = -lat
		}
		if fd > 0.5 && fd < holdDist && lat < corridorHalfWidth {
			if w == nil {
				return true, true
			}
			return true, w.HasZoneKindAt(world.ZoneTunnel, d.pos)
		}
	}
	return false, false
}

// parentHold is the oracle's hold state machine, a copy of Apply's,
// driven by parentBlocker.
type parentHold struct {
	holding              bool
	holdStart, passUntil time.Duration
	patience             time.Duration
}

func (h *parentHold) apply(now time.Duration, blocked, inTunnel bool) bool {
	if now < h.passUntil {
		return false
	}
	if !blocked {
		h.holding = false
		return false
	}
	if !h.holding {
		h.holding = true
		h.holdStart = now
	}
	if !inTunnel && now-h.holdStart >= h.patience {
		h.holding = false
		h.passUntil = now + passWindow
		return false
	}
	return true
}

// tieWorld has a tunnel zone below the x axis, so a target at (x, -y)
// stands in the tunnel and its mirror image at (x, y), at exactly the
// same distance from an observer on the axis, does not.
func tieWorld() *world.World {
	w := world.New()
	w.MustAddZone(world.Zone{ID: "tunnel", Kind: world.ZoneTunnel,
		Area: geom.NewRect(geom.V(-50, -20), geom.V(50, -0.25))})
	return w
}

func observer(w *world.World, heading float64) *core.Constituent {
	return core.MustConstituent(core.Config{
		ID: "v", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0), Heading: heading}, World: w,
	})
}

// randomCloud draws targets on a half-metre lattice around an observer
// at the origin; about half come with a mirror twin across the x axis,
// so distance ties are common. Some clouds add a target dead ahead at
// exactly edge metres (the effective range, when that is exact). IDs
// are unique and shuffled.
func randomCloud(rng *rand.Rand, edge float64) []sensor.Target {
	var out []sensor.Target
	ids := rng.Perm(40)
	next := func(p geom.Vec2) {
		out = append(out, sensor.Target{ID: fmt.Sprintf("t%02d", ids[len(out)]), Pos: p})
	}
	if rng.Intn(3) == 0 {
		next(geom.V(edge, 0))
	}
	for i := 0; i < rng.Intn(10); i++ {
		p := geom.V(float64(rng.Intn(33)-8)/2, float64(rng.Intn(17)-8)/2)
		next(p)
		if rng.Intn(2) == 0 && p.Y != 0 {
			next(geom.V(p.X, -p.Y))
		}
	}
	return out
}

// TestObstacleMonitorMatchesParentRule drives the monitor and the
// oracle through random target clouds with distance ties, effective
// ranges that cut through the corridor (some exactly on a target), and
// feeds served in a fresh order every tick. Each tick the blocker, the
// tunnel bit and the hold (and with it the pass-around timing) must
// agree.
func TestObstacleMonitorMatchesParentRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := tieWorld()
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	env := e.Env()
	holds, passes, tunnelHolds := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		heading := 0.0
		if trial%4 == 3 {
			heading = rng.Float64() * 2 * math.Pi
		}
		c := observer(w, heading)
		// The truck's 120 m suite degraded to 1/32 or 1/16 reaches
		// exactly 3.75 or 7.5 m; other trials cut it anywhere below
		// 9.6 m, or leave it whole.
		h := rng.Float64() * 0.08
		switch trial % 5 {
		case 1:
			h = 1.0 / 32
		case 2:
			h = 1.0 / 16
		case 4:
			h = 1
		}
		for _, n := range c.Suite().Names() {
			_ = c.Suite().Degrade(n, h)
		}
		edge := c.Suite().EffectiveRange()
		var feed []sensor.Target
		mon := NewObstacleMonitor(c, func() []sensor.Target { return feed }, w)
		if trial%5 == 0 {
			mon.World = nil
		}
		oracle := &parentHold{patience: mon.Patience}
		cloud := randomCloud(rng, edge)
		for tick := 0; tick < 300; tick++ {
			if rng.Intn(60) == 0 {
				cloud = randomCloud(rng, edge)
			}
			feed = slices.Clone(cloud)
			rng.Shuffle(len(feed), func(i, j int) { feed[i], feed[j] = feed[j], feed[i] })
			blocked, inTunnel := mon.blocker()
			wantBlocked, wantTunnel := parentBlocker(c, mon.World, feed)
			if blocked != wantBlocked || inTunnel != wantTunnel {
				t.Fatalf("trial %d tick %d: blocker = (%v, %v), parent rule (%v, %v); range %.3f, feed %v",
					trial, tick, blocked, inTunnel, wantBlocked, wantTunnel, c.Suite().EffectiveRange(), feed)
			}
			now := env.Clock.Now()
			mon.Apply(env)
			want := oracle.apply(now, wantBlocked, wantTunnel)
			if c.Holding() != want {
				t.Fatalf("trial %d tick %d at %v: holding = %v, parent rule %v", trial, tick, now, c.Holding(), want)
			}
			switch {
			case want && wantTunnel:
				tunnelHolds++
			case want:
				holds++
			case wantBlocked:
				passes++
			}
			e.RunTick()
		}
	}
	if holds == 0 || passes == 0 || tunnelHolds == 0 {
		t.Errorf("clouds too tame: %d holds, %d tunnel holds, %d blocked ticks released", holds, tunnelHolds, passes)
	}
}

// TestObstacleMonitorEquidistantBlockers: two blockers at the same
// distance, one inside a tunnel zone. The one with the lesser ID
// decides, whatever the feed order: in the tunnel the hold lasts,
// outside it the vehicle passes around after Patience.
func TestObstacleMonitorEquidistantBlockers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		a, b       geom.Vec2
		holdsAfter bool
	}{
		{"lesser ID in tunnel", geom.V(5, -1), geom.V(5, 1), true},
		{"lesser ID outside", geom.V(5, 1), geom.V(5, -1), false},
	} {
		for _, reversed := range []bool{false, true} {
			w := tieWorld()
			c := observer(w, 0)
			feed := []sensor.Target{{ID: "a", Pos: tc.a}, {ID: "b", Pos: tc.b}}
			if reversed {
				slices.Reverse(feed)
			}
			if c.Body().Position().Dist(tc.a) != c.Body().Position().Dist(tc.b) {
				t.Fatal("setup: blockers not equidistant")
			}
			mon := NewObstacleMonitor(c, func() []sensor.Target { return feed }, w)
			e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
			for d := time.Duration(0); d <= mon.Patience+time.Second; d += 100 * time.Millisecond {
				mon.Apply(e.Env())
				e.RunTick()
			}
			if c.Holding() != tc.holdsAfter {
				t.Errorf("%s (reversed %v): holding after patience = %v, want %v",
					tc.name, reversed, c.Holding(), tc.holdsAfter)
			}
		}
	}
}
