package odd

import (
	"strings"
	"testing"

	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

func nominalInput() Input {
	return Input{
		Weather: world.Weather{Condition: world.Clear, TemperatureC: 15},
		Caps:    vehicle.FullCapabilities(vehicle.DefaultSpec(vehicle.KindTruck)),
	}
}

func TestInsideNominal(t *testing.T) {
	m := NewMonitor(DefaultRoadSpec())
	st := m.Evaluate(nominalInput())
	if !st.Inside || st.NearExit {
		t.Errorf("nominal status = %+v", st)
	}
	if st.String() != "inside ODD" {
		t.Errorf("String = %q", st.String())
	}
}

func TestWeatherViolation(t *testing.T) {
	m := NewMonitor(DefaultSiteSpec()) // max Rain
	in := nominalInput()
	in.Weather.Condition = world.HeavyRain
	st := m.Evaluate(in)
	if st.Inside {
		t.Error("heavy rain should violate site ODD")
	}
	if !strings.Contains(st.String(), "weather") {
		t.Errorf("String = %q", st.String())
	}
	// At the boundary: inside but near exit.
	in.Weather.Condition = world.Rain
	in.Weather.TemperatureC = 15
	st = m.Evaluate(in)
	if !st.Inside || !st.NearExit {
		t.Errorf("rain at boundary = %+v", st)
	}
}

func TestTemperatureViolation(t *testing.T) {
	m := NewMonitor(DefaultSiteSpec()) // min -10
	in := nominalInput()
	in.Weather.TemperatureC = -15
	if st := m.Evaluate(in); st.Inside {
		t.Error("cold should violate")
	}
	in.Weather.TemperatureC = -9
	st := m.Evaluate(in)
	if !st.Inside || !st.NearExit {
		t.Errorf("near-min temperature = %+v", st)
	}
}

func TestSlipViolation(t *testing.T) {
	m := NewMonitor(DefaultSiteSpec()) // max slip 0.4
	in := nominalInput()
	// Cold rain: slip = 0.2 + 0.3 = 0.5 > 0.4 (the paper's harbour trigger).
	in.Weather = world.Weather{Condition: world.Rain, TemperatureC: 2}
	st := m.Evaluate(in)
	if st.Inside {
		t.Errorf("cold rain should violate site slip limit: %+v", st)
	}
	// Warm rain: slip = 0.2, inside but not near (0.2 < 0.32).
	in.Weather = world.Weather{Condition: world.Rain, TemperatureC: 15}
	st = m.Evaluate(in)
	if !st.Inside {
		t.Errorf("warm rain should be inside: %+v", st)
	}
}

func TestPerceptionViolation(t *testing.T) {
	m := NewMonitor(DefaultRoadSpec()) // min 20m
	in := nominalInput()
	in.Caps.PerceptionRange = 10
	st := m.Evaluate(in)
	if st.Inside {
		t.Error("blind vehicle should violate")
	}
	in.Caps.PerceptionRange = 22 // within 20% of 20
	st = m.Evaluate(in)
	if !st.Inside || !st.NearExit {
		t.Errorf("marginal perception = %+v", st)
	}
}

func TestMultipleViolations(t *testing.T) {
	m := NewMonitor(DefaultSiteSpec())
	in := nominalInput()
	in.Weather = world.Weather{Condition: world.Snow, TemperatureC: -30}
	in.Caps.PerceptionRange = 0
	st := m.Evaluate(in)
	if st.Inside || len(st.Violations) < 3 {
		t.Errorf("violations = %v", st.Violations)
	}
	if st.NearExit || len(st.NearReasons) != 0 {
		t.Error("outside ODD should not be near-exit")
	}
}
