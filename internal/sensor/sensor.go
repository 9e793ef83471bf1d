// Package sensor simulates the perception stack of a constituent:
// a suite of named sensors whose combined effective range depends on
// per-sensor health and on weather attenuation. The paper's fault
// examples ("long-range radar fails → lower speed", "front-facing
// sensor fails → cannot lead", "rain shrinks perception") all map to
// range and availability changes in this model.
package sensor

import (
	"fmt"

	"coopmrm/internal/geom"
)

// Sensor is one perception device.
type Sensor struct {
	Name         string
	NominalRange float64 // metres in clear weather

	health float64 // 0 = dead, 1 = nominal
}

// Suite is a set of sensors belonging to one constituent.
type Suite struct {
	// sensors in definition order. Suites hold a handful, so a lookup
	// by name scans them.
	sensors []Sensor
	// weatherFactor is the current environmental attenuation in (0,1].
	weatherFactor float64
}

// Validate checks a sensor definition list for configuration
// mistakes: empty names and duplicate names (a duplicate would
// silently shadow the first definition's health and range).
func Validate(sensors ...Sensor) error {
	seen := make(map[string]bool, len(sensors))
	for _, s := range sensors {
		if s.Name == "" {
			return fmt.Errorf("sensor: sensor with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("sensor: duplicate sensor name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// NewSuite builds a suite from sensor definitions; all start healthy.
// Definitions that fail Validate are dropped (first definition of a
// duplicated name wins) — prefer NewSuiteStrict, which surfaces the
// mistake instead of hiding it.
func NewSuite(sensors ...Sensor) *Suite {
	st := &Suite{
		sensors:       make([]Sensor, 0, len(sensors)),
		weatherFactor: 1,
	}
	for _, s := range sensors {
		if st.find(s.Name) != nil {
			continue
		}
		s.health = 1
		st.sensors = append(st.sensors, s)
	}
	return st
}

// NewSuiteStrict is NewSuite with Validate applied first: duplicate
// or empty sensor names are an error rather than a silent drop.
func NewSuiteStrict(sensors ...Sensor) (*Suite, error) {
	if err := Validate(sensors...); err != nil {
		return nil, err
	}
	return NewSuite(sensors...), nil
}

// standardSensors is the fixed definition list behind StandardSuite
// and ReinitStandard — one source so the two paths cannot diverge.
func standardSensors(nominalRange float64) [3]Sensor {
	return [3]Sensor{
		{Name: "long_range_radar", NominalRange: nominalRange},
		{Name: "camera", NominalRange: nominalRange * 0.6},
		{Name: "short_range", NominalRange: nominalRange * 0.3},
	}
}

// StandardSuite returns a typical long+short range suite whose best
// range equals nominalRange.
func StandardSuite(nominalRange float64) *Suite {
	defs := standardSensors(nominalRange)
	st, err := NewSuiteStrict(defs[:]...)
	if err != nil {
		panic(err) // the fixed definitions above can never collide
	}
	return st
}

// ReinitStandard resets the suite in place to exactly
// StandardSuite(nominalRange), overwriting its three sensor entries.
// The suite must have been built by StandardSuite: no method adds or
// renames sensors, so its entries are exactly the standard ones, in
// the same order.
func (st *Suite) ReinitStandard(nominalRange float64) {
	st.weatherFactor = 1
	for i, s := range standardSensors(nominalRange) {
		s.health = 1
		st.sensors[i] = s
	}
}

// Names returns the sensor names in definition order.
func (st *Suite) Names() []string {
	out := make([]string, len(st.sensors))
	for i := range st.sensors {
		out[i] = st.sensors[i].Name
	}
	return out
}

// find returns the sensor with the given name, or nil.
func (st *Suite) find(name string) *Sensor {
	for i := range st.sensors {
		if st.sensors[i].Name == name {
			return &st.sensors[i]
		}
	}
	return nil
}

// SetWeatherFactor sets the environmental attenuation in (0, 1].
func (st *Suite) SetWeatherFactor(f float64) {
	st.weatherFactor = geom.Clamp(f, 0.01, 1)
}

// Degrade sets a sensor's health factor in [0, 1].
func (st *Suite) Degrade(name string, health float64) error {
	return st.setHealth(name, geom.Clamp(health, 0, 1))
}

// Restore marks a sensor healthy.
func (st *Suite) Restore(name string) error { return st.setHealth(name, 1) }

func (st *Suite) setHealth(name string, h float64) error {
	s := st.find(name)
	if s == nil {
		return fmt.Errorf("sensor: unknown sensor %q", name)
	}
	s.health = h
	return nil
}

// EffectiveRange returns the best current detection range across all
// sensors, after health and weather attenuation.
func (st *Suite) EffectiveRange() float64 {
	best := 0.0
	for i := range st.sensors {
		s := &st.sensors[i]
		r := s.NominalRange * s.health * st.weatherFactor
		if r > best {
			best = r
		}
	}
	return best
}

// Target is a detectable object.
type Target struct {
	ID  string
	Pos geom.Vec2
}
