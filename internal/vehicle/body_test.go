package vehicle

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"coopmrm/internal/geom"
)

func testBody() *Body {
	return NewBody(DefaultSpec(KindTruck), geom.Pose{Pos: geom.V(0, 0)})
}

func stepFor(b *Body, seconds float64) {
	const dt = 0.1
	for t := 0.0; t < seconds; t += dt {
		b.Step(dt)
	}
}

func TestKindString(t *testing.T) {
	if KindDigger.String() != "digger" {
		t.Error("kind name wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestDefaultSpecsSane(t *testing.T) {
	for _, k := range []Kind{KindCar, KindTruck, KindDigger, KindCrane, KindForklift} {
		s := DefaultSpec(k)
		if s.MaxSpeed <= 0 || s.ServiceDecel <= 0 || s.EmergencyDecel < s.ServiceDecel {
			t.Errorf("%v spec not sane: %+v", k, s)
		}
		if s.SensorRange <= 0 || s.Length <= 0 || s.Width <= 0 {
			t.Errorf("%v geometry not sane: %+v", k, s)
		}
	}
	if !DefaultSpec(KindDigger).HasTool || DefaultSpec(KindCar).HasTool {
		t.Error("tool flags wrong")
	}
}

func TestStoppingDistance(t *testing.T) {
	if d := StoppingDistance(10, 2); d != 25 {
		t.Errorf("StoppingDistance = %v, want 25", d)
	}
	if d := StoppingDistance(10, 0); d < 1e17 {
		t.Errorf("zero decel should be effectively infinite, got %v", d)
	}
}

func TestBodyAcceleratesAndArrives(t *testing.T) {
	b := testBody()
	p := geom.MustPath(geom.V(0, 0), geom.V(200, 0))
	if err := b.SetPath(p, 10); err != nil {
		t.Fatal(err)
	}
	stepFor(b, 60)
	if !b.Arrived() {
		t.Fatalf("did not arrive: pos=%v speed=%v", b.Position(), b.Speed())
	}
	if !b.Position().ApproxEq(geom.V(200, 0), 0.5) {
		t.Errorf("final pos = %v", b.Position())
	}
}

func TestBodyRespectsTargetSpeed(t *testing.T) {
	b := testBody()
	p := geom.MustPath(geom.V(0, 0), geom.V(1000, 0))
	if err := b.SetPath(p, 8); err != nil {
		t.Fatal(err)
	}
	stepFor(b, 20)
	if b.Speed() > 8+1e-9 {
		t.Errorf("speed %v exceeds target 8", b.Speed())
	}
	b.SetTargetSpeed(3)
	stepFor(b, 10)
	if math.Abs(b.Speed()-3) > 1e-6 {
		t.Errorf("speed %v after slow-down, want 3", b.Speed())
	}
	// Clamps to spec max.
	b.SetTargetSpeed(9999)
	if b.TargetSpeed() != b.Spec().MaxSpeed {
		t.Errorf("target %v not clamped to %v", b.TargetSpeed(), b.Spec().MaxSpeed)
	}
}

func TestBodyCommandStop(t *testing.T) {
	b := testBody()
	p := geom.MustPath(geom.V(0, 0), geom.V(1000, 0))
	_ = b.SetPath(p, 10)
	stepFor(b, 15)
	v0 := b.Speed()
	if v0 < 9 {
		t.Fatalf("setup: speed %v", v0)
	}
	start, _ := b.PathProgress()
	b.CommandStop()
	if !b.Stopping() {
		t.Error("Stopping should be true")
	}
	stepFor(b, 10)
	if !b.Stopped() {
		t.Errorf("not stopped, speed %v", b.Speed())
	}
	// Distance covered while stopping should be near v^2/2a.
	want := StoppingDistance(v0, b.Spec().ServiceDecel)
	done, _ := b.PathProgress()
	if got := done - start; math.Abs(got-want) > 2 {
		t.Errorf("stop distance = %v, want ~%v", got, want)
	}
}

func TestBodyEmergencyStopShorter(t *testing.T) {
	run := func(em bool) float64 {
		b := testBody()
		p := geom.MustPath(geom.V(0, 0), geom.V(1000, 0))
		_ = b.SetPath(p, 10)
		stepFor(b, 15)
		start, _ := b.PathProgress()
		if em {
			b.EmergencyStop()
		} else {
			b.CommandStop()
		}
		stepFor(b, 20)
		end, _ := b.PathProgress()
		return end - start
	}
	if run(true) >= run(false) {
		t.Error("emergency stop must be shorter than service stop")
	}
}

func TestBodyBrakeDegradation(t *testing.T) {
	b := testBody()
	p := geom.MustPath(geom.V(0, 0), geom.V(2000, 0))
	_ = b.SetPath(p, 10)
	stepFor(b, 15)
	b.DegradeBrakes(0.25)
	if b.BrakeFactor() != 0.25 {
		t.Errorf("BrakeFactor = %v", b.BrakeFactor())
	}
	start, _ := b.PathProgress()
	b.CommandStop()
	stepFor(b, 60)
	end, _ := b.PathProgress()
	nominal := StoppingDistance(10, b.Spec().ServiceDecel)
	if end-start < 3*nominal {
		t.Errorf("degraded stop %v should far exceed nominal %v", end-start, nominal)
	}
	if !b.Stopped() {
		t.Error("should still stop eventually")
	}
}

func TestBodyPropulsionFailure(t *testing.T) {
	b := testBody()
	p := geom.MustPath(geom.V(0, 0), geom.V(2000, 0))
	_ = b.SetPath(p, 10)
	stepFor(b, 15)
	b.DisablePropulsion()
	b.SetTargetSpeed(20) // cannot comply
	v := b.Speed()
	stepFor(b, 5)
	if b.Speed() > v+1e-9 {
		t.Error("accelerated with dead propulsion")
	}
	b.EnablePropulsion()
	stepFor(b, 10)
	if b.Speed() <= v {
		t.Error("repair did not restore acceleration")
	}
}

func TestBodySteeringLock(t *testing.T) {
	b := testBody()
	b.LockSteering()
	if b.SteeringOK() {
		t.Error("SteeringOK after lock")
	}
	p := geom.MustPath(geom.V(0, 0), geom.V(100, 0))
	if err := b.SetPath(p, 5); !errors.Is(err, ErrSteeringFailed) {
		t.Errorf("SetPath err = %v, want ErrSteeringFailed", err)
	}
	b.UnlockSteering()
	if err := b.SetPath(p, 5); err != nil {
		t.Errorf("SetPath after unlock: %v", err)
	}
}

func TestBodyHeadingFollowsPath(t *testing.T) {
	b := NewBody(DefaultSpec(KindForklift), geom.Pose{Pos: geom.V(0, 0)})
	p := geom.MustPath(geom.V(0, 0), geom.V(20, 0), geom.V(20, 20))
	_ = b.SetPath(p, 5)
	stepFor(b, 5) // well into first leg
	if math.Abs(b.Pose().Heading) > 1e-6 {
		t.Errorf("heading on first leg = %v", b.Pose().Heading)
	}
	stepFor(b, 10)
	if math.Abs(b.Pose().Heading-math.Pi/2) > 1e-6 {
		t.Errorf("heading on second leg = %v", b.Pose().Heading)
	}
}

func TestBodyIdleAndTeleport(t *testing.T) {
	b := testBody()
	if !b.Idle() {
		t.Error("fresh body should be idle")
	}
	b.Teleport(geom.Pose{Pos: geom.V(5, 5), Heading: 1})
	if b.Position() != geom.V(5, 5) || !b.Idle() || !b.Stopped() {
		t.Error("teleport state wrong")
	}
	done, total := b.PathProgress()
	if done != 0 || total != 0 {
		t.Error("idle progress should be zero")
	}
}

func TestBodyFootprint(t *testing.T) {
	b := testBody()
	fp := b.Footprint()
	if fp.Length != b.Spec().Length || fp.Width != b.Spec().Width {
		t.Error("footprint dims wrong")
	}
	other := NewBody(DefaultSpec(KindTruck), geom.Pose{Pos: geom.V(3, 0)})
	if !fp.Overlaps(other.Footprint()) {
		t.Error("close trucks should overlap")
	}
}

func TestCapabilities(t *testing.T) {
	spec := DefaultSpec(KindTruck)
	c := FullCapabilities(spec)
	if !c.CanLead(100) {
		t.Error("full capabilities should allow leading")
	}
	c.PerceptionRange = 50
	if c.CanLead(100) {
		t.Error("short perception cannot lead")
	}
	c.PerceptionRange = 100
	c.ServiceBrake = false
	if c.CanLead(100) {
		t.Error("no service brake should disqualify leading")
	}
}

// Property: the body never exceeds its spec max speed and never moves
// backwards along its path.
func TestBodySpeedInvariant(t *testing.T) {
	f := func(target float64, seed int64) bool {
		if math.IsNaN(target) || math.IsInf(target, 0) {
			return true
		}
		b := testBody()
		p := geom.MustPath(geom.V(0, 0), geom.V(500, 0))
		_ = b.SetPath(p, math.Mod(math.Abs(target), 40))
		last := 0.0
		for i := 0; i < 300; i++ {
			b.Step(0.1)
			if b.Speed() > b.Spec().MaxSpeed+1e-9 {
				return false
			}
			done, _ := b.PathProgress()
			if done < last-1e-9 {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindCar, KindTruck, KindDigger, KindCrane, KindForklift} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("hovercraft"); err == nil {
		t.Error("unknown kind should error")
	}
}

// TestCountMoves: the counter moves with the position — on Teleport and
// on a Step that advances the body — and not while the body stands
// still; Reinit detaches it.
func TestCountMoves(t *testing.T) {
	b := testBody()
	var n uint64
	b.CountMoves(&n)
	stepFor(b, 1)
	if n != 0 {
		t.Fatalf("idle body counted %d moves", n)
	}
	b.Teleport(geom.Pose{Pos: geom.V(5, 0)})
	if n != 1 {
		t.Fatalf("teleport counted %d moves, want 1", n)
	}
	if err := b.SetPath(geom.MustPath(geom.V(5, 0), geom.V(100, 0)), 10); err != nil {
		t.Fatal(err)
	}
	before, pos := n, b.Position()
	stepFor(b, 3)
	if b.Position() == pos || n == before {
		t.Fatalf("moving body counted %d moves (position %v)", n-before, b.Position())
	}
	b.EmergencyStop()
	stepFor(b, 10)
	stopped := n
	stepFor(b, 1)
	if n != stopped {
		t.Errorf("stopped body counted %d moves", n-stopped)
	}
	b.Reinit(DefaultSpec(KindTruck), geom.Pose{Pos: geom.V(1, 1)})
	b.Teleport(geom.Pose{Pos: geom.V(2, 2)})
	if n != stopped {
		t.Errorf("reinitialised body still counts moves")
	}
}
