// Package odd models operational design domains: the conditions a
// constituent is designed to handle. An ODD monitor evaluates the
// current weather and capability vector against the spec
// and reports violations and near-exit warnings, which the ADS layer
// turns into degradations or MRM triggers.
package odd

import (
	"fmt"
	"strings"

	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// Spec defines one operational design domain.
type Spec struct {
	// MaxCondition is the worst weather condition still inside the
	// ODD (conditions are ordered by severity in package world).
	MaxCondition world.Condition
	// MinTemperatureC is the lowest operating temperature.
	MinTemperatureC float64
	// MaxSlipRisk bounds the acceptable traction loss in [0, 1].
	MaxSlipRisk float64
	// MinPerceptionRange is the minimum effective sensing range
	// needed to operate at all.
	MinPerceptionRange float64
}

// DefaultRoadSpec returns a permissive highway ODD.
func DefaultRoadSpec() Spec {
	return Spec{
		MaxCondition:       world.HeavyRain,
		MinTemperatureC:    -20,
		MaxSlipRisk:        0.75,
		MinPerceptionRange: 20,
	}
}

// DefaultSiteSpec returns a typical confined-site ODD (mine, harbour,
// construction), which is stricter about traction.
func DefaultSiteSpec() Spec {
	return Spec{
		MaxCondition:       world.Rain,
		MinTemperatureC:    -10,
		MaxSlipRisk:        0.4,
		MinPerceptionRange: 10,
	}
}

// Input is the state evaluated against a Spec.
type Input struct {
	Weather world.Weather
	Caps    vehicle.Capabilities
}

// Status is the result of one evaluation.
type Status struct {
	Inside bool
	// Violations lists human-readable reasons when outside.
	Violations []string
	// NearExit is set when inside but within the configured margin of
	// a boundary (the paper's "near ODD exit" trigger).
	NearExit bool
	// NearReasons lists which boundaries are close.
	NearReasons []string
}

// String implements fmt.Stringer.
func (s Status) String() string {
	switch {
	case !s.Inside:
		return "outside ODD: " + strings.Join(s.Violations, "; ")
	case s.NearExit:
		return "near ODD exit: " + strings.Join(s.NearReasons, "; ")
	default:
		return "inside ODD"
	}
}

// nearMargin is the relative closeness (0..1) to a limit at which
// NearExit triggers: "within 20% of a limit".
const nearMargin = 0.2

// Monitor evaluates Inputs against a Spec with the nearMargin
// near-exit margin.
type Monitor struct {
	spec Spec
}

// NewMonitor returns a monitor for spec.
func NewMonitor(spec Spec) *Monitor {
	return &Monitor{spec: spec}
}

// Reinit resets the monitor in place to NewMonitor(spec) — the
// warm-rig path reuses monitor allocations across runs.
func (m *Monitor) Reinit(spec Spec) {
	*m = Monitor{spec: spec}
}

// Evaluate checks in against the spec.
func (m *Monitor) Evaluate(in Input) Status {
	var st Status
	st.Inside = true

	if in.Weather.Condition > m.spec.MaxCondition {
		st.Inside = false
		st.Violations = append(st.Violations,
			fmt.Sprintf("weather %v exceeds ODD max %v", in.Weather.Condition, m.spec.MaxCondition))
	} else if in.Weather.Condition == m.spec.MaxCondition && m.spec.MaxCondition > world.Clear {
		st.NearReasons = append(st.NearReasons, "weather at ODD boundary")
	}

	if in.Weather.TemperatureC < m.spec.MinTemperatureC {
		st.Inside = false
		st.Violations = append(st.Violations,
			fmt.Sprintf("temperature %.1fC below ODD min %.1fC", in.Weather.TemperatureC, m.spec.MinTemperatureC))
	} else if in.Weather.TemperatureC < m.spec.MinTemperatureC+2 {
		st.NearReasons = append(st.NearReasons, "temperature near ODD min")
	}

	if slip := in.Weather.SlipRisk(); slip > m.spec.MaxSlipRisk {
		st.Inside = false
		st.Violations = append(st.Violations,
			fmt.Sprintf("slip risk %.2f exceeds ODD max %.2f", slip, m.spec.MaxSlipRisk))
	} else if m.spec.MaxSlipRisk > 0 && slip > (1-nearMargin)*m.spec.MaxSlipRisk {
		st.NearReasons = append(st.NearReasons, "slip risk near ODD max")
	}

	if in.Caps.PerceptionRange < m.spec.MinPerceptionRange {
		st.Inside = false
		st.Violations = append(st.Violations,
			fmt.Sprintf("perception %.1fm below ODD min %.1fm", in.Caps.PerceptionRange, m.spec.MinPerceptionRange))
	} else if m.spec.MinPerceptionRange > 0 &&
		in.Caps.PerceptionRange < (1+nearMargin)*m.spec.MinPerceptionRange {
		st.NearReasons = append(st.NearReasons, "perception near ODD min")
	}

	st.NearExit = st.Inside && len(st.NearReasons) > 0
	if !st.Inside {
		st.NearReasons = nil
	}
	return st
}
