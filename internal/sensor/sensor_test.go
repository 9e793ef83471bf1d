package sensor

import (
	"math"
	"testing"
)

func TestSuiteEffectiveRange(t *testing.T) {
	st := StandardSuite(100)
	if r := st.EffectiveRange(); r != 100 {
		t.Errorf("EffectiveRange = %v, want 100", r)
	}
	// Long-range radar fails: fall back to camera (60).
	if err := st.Fail("long_range_radar"); err != nil {
		t.Fatal(err)
	}
	if r := st.EffectiveRange(); r != 60 {
		t.Errorf("after radar fail = %v, want 60", r)
	}
	// Camera degraded 50%: short_range (30) wins.
	if err := st.Degrade("camera", 0.4); err != nil {
		t.Fatal(err)
	}
	if r := st.EffectiveRange(); r != 30 {
		t.Errorf("after camera degrade = %v, want 30", r)
	}
	// Repair.
	if err := st.Restore("long_range_radar"); err != nil {
		t.Fatal(err)
	}
	if r := st.EffectiveRange(); r != 100 {
		t.Errorf("after restore = %v, want 100", r)
	}
}

func TestSuiteUnknownSensor(t *testing.T) {
	st := StandardSuite(100)
	if err := st.Fail("nope"); err == nil {
		t.Error("unknown sensor should error")
	}
	if err := st.Degrade("nope", 0.5); err == nil {
		t.Error("unknown sensor should error")
	}
	if err := st.Restore("nope"); err == nil {
		t.Error("unknown sensor should error")
	}
}

func TestSuiteWeather(t *testing.T) {
	st := StandardSuite(100)
	st.SetWeatherFactor(0.45)
	if r := st.EffectiveRange(); math.Abs(r-45) > 1e-9 {
		t.Errorf("heavy rain range = %v, want 45", r)
	}
	st.SetWeatherFactor(1)
	if r := st.EffectiveRange(); r != 100 {
		t.Errorf("cleared range = %v", r)
	}
	// Clamp silly values.
	st.SetWeatherFactor(-3)
	if st.EffectiveRange() <= 0 {
		t.Error("weather factor clamp should keep tiny positive range")
	}
}

func TestFrontRange(t *testing.T) {
	st := StandardSuite(100)
	if st.FrontRange() != 100 {
		t.Errorf("FrontRange = %v", st.FrontRange())
	}
	_ = st.Fail("long_range_radar")
	if st.FrontRange() != 60 {
		t.Errorf("FrontRange after radar fail = %v, want camera 60", st.FrontRange())
	}
	_ = st.Fail("camera")
	if st.FrontRange() != 0 {
		t.Errorf("FrontRange with all front sensors dead = %v", st.FrontRange())
	}
	// Non-front sensor still gives overall range.
	if st.EffectiveRange() != 30 {
		t.Errorf("EffectiveRange = %v, want 30", st.EffectiveRange())
	}
}

func TestBlind(t *testing.T) {
	st := StandardSuite(100)
	for _, n := range st.Names() {
		_ = st.Fail(n)
	}
	if !st.Blind() {
		t.Error("all sensors dead should be blind")
	}
}

func TestMaxRange(t *testing.T) {
	st := StandardSuite(100)
	if r := st.MaxRange(); r != 100 {
		t.Fatalf("MaxRange = %v, want 100", r)
	}
	// Faults and weather shrink the effective range, never the bound.
	_ = st.Fail("long_range_radar")
	_ = st.Degrade("camera", 0.5)
	st.SetWeatherFactor(0.3)
	if r := st.MaxRange(); r != 100 {
		t.Errorf("MaxRange after faults = %v, want 100", r)
	}
	if st.EffectiveRange() > st.MaxRange() {
		t.Errorf("EffectiveRange %v above MaxRange %v", st.EffectiveRange(), st.MaxRange())
	}
	if r := NewSuite(Sensor{Name: "a", NominalRange: 30}, Sensor{Name: "b", NominalRange: 70}).MaxRange(); r != 70 {
		t.Errorf("custom suite MaxRange = %v, want 70", r)
	}
}

func TestNewSuiteDuplicateNames(t *testing.T) {
	st := NewSuite(
		Sensor{Name: "x", NominalRange: 10},
		Sensor{Name: "x", NominalRange: 99},
	)
	if len(st.Names()) != 1 {
		t.Errorf("duplicate names should collapse: %v", st.Names())
	}
	if st.EffectiveRange() != 10 {
		t.Errorf("first definition should win: %v", st.EffectiveRange())
	}
}

// Regression: NewSuite silently dropped duplicate sensor definitions,
// so a typo in a suite config lost a sensor without a trace. The
// strict constructor makes it an error.
func TestNewSuiteStrictRejectsDuplicates(t *testing.T) {
	if _, err := NewSuiteStrict(
		Sensor{Name: "x", NominalRange: 10},
		Sensor{Name: "x", NominalRange: 99},
	); err == nil {
		t.Error("duplicate sensor names must be an error")
	}
	if _, err := NewSuiteStrict(Sensor{NominalRange: 10}); err == nil {
		t.Error("empty sensor name must be an error")
	}
	st, err := NewSuiteStrict(
		Sensor{Name: "a", NominalRange: 10},
		Sensor{Name: "b", NominalRange: 20},
	)
	if err != nil || len(st.Names()) != 2 {
		t.Errorf("valid suite rejected: %v %v", st, err)
	}
	if err := Validate(
		Sensor{Name: "a"}, Sensor{Name: "b"}, Sensor{Name: "a"},
	); err == nil {
		t.Error("Validate must catch the duplicate")
	}
}

// StandardSuite goes through the strict path: its fixed definitions
// must stay valid.
func TestStandardSuiteStrict(t *testing.T) {
	st := StandardSuite(100)
	if len(st.Names()) != 3 {
		t.Errorf("standard suite = %v", st.Names())
	}
}
