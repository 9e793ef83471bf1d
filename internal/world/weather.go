package world

import (
	"fmt"
	"time"
)

// Condition enumerates weather conditions with ODD relevance.
type Condition int

// Weather conditions, ordered roughly by severity.
const (
	Clear Condition = iota + 1
	Fog
	Rain
	HeavyRain
	Snow
)

var conditionNames = map[Condition]string{
	Clear:     "clear",
	Fog:       "fog",
	Rain:      "rain",
	HeavyRain: "heavy_rain",
	Snow:      "snow",
}

// String implements fmt.Stringer.
func (c Condition) String() string {
	if s, ok := conditionNames[c]; ok {
		return s
	}
	return fmt.Sprintf("condition(%d)", int(c))
}

// ParseCondition resolves a weather condition name ("rain", ...).
func ParseCondition(name string) (Condition, error) {
	for c, n := range conditionNames {
		if n == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("world: unknown condition %q", name)
}

// Weather is the current environmental state relevant to ODDs and
// perception.
type Weather struct {
	Condition    Condition
	TemperatureC float64
}

// PerceptionFactor returns the multiplicative factor applied to sensor
// range under this weather, in (0, 1].
func (w Weather) PerceptionFactor() float64 {
	switch w.Condition {
	case Fog:
		return 0.35
	case Rain:
		return 0.7
	case HeavyRain:
		return 0.45
	case Snow:
		return 0.5
	default:
		return 1.0
	}
}

// SlipRisk returns the probability-like slipperiness factor in [0, 1]
// used by traction monitors. Rain near or below freezing is the
// paper's harbour trigger (rain + decreasing temperature).
func (w Weather) SlipRisk() float64 {
	base := 0.0
	switch w.Condition {
	case Rain:
		base = 0.2
	case HeavyRain:
		base = 0.4
	case Snow:
		base = 0.6
	}
	if base > 0 && w.TemperatureC <= 4 {
		base += 0.3
	}
	if base > 1 {
		base = 1
	}
	return base
}

// RiskModifier returns the additive residual-risk modifier weather
// contributes to stopping anywhere.
func (w Weather) RiskModifier() float64 { return w.SlipRisk() * 0.1 }

// WeatherChange is one scheduled change of the weather state.
type WeatherChange struct {
	At           time.Duration
	Condition    Condition
	TemperatureC float64
}

// WeatherSchedule is a deterministic script of weather changes applied
// to a world as simulated time passes. The zero value is an empty
// schedule.
type WeatherSchedule struct {
	changes []WeatherChange
	next    int
}

// NewWeatherSchedule returns a schedule applying the given changes in
// order. Changes must be sorted by time; out-of-order entries are an
// error.
func NewWeatherSchedule(changes ...WeatherChange) (*WeatherSchedule, error) {
	for i := 1; i < len(changes); i++ {
		if changes[i].At < changes[i-1].At {
			return nil, fmt.Errorf("world: weather changes out of order at index %d", i)
		}
	}
	return &WeatherSchedule{changes: changes}, nil
}

// MustWeatherSchedule is NewWeatherSchedule that panics on error.
func MustWeatherSchedule(changes ...WeatherChange) *WeatherSchedule {
	s, err := NewWeatherSchedule(changes...)
	if err != nil {
		panic(err)
	}
	return s
}

// Apply updates w.Weather with every change due at or before now.
// It returns the changes applied this call (possibly none).
func (s *WeatherSchedule) Apply(w *World, now time.Duration) []WeatherChange {
	var applied []WeatherChange
	for s.next < len(s.changes) && s.changes[s.next].At <= now {
		c := s.changes[s.next]
		w.Weather = Weather{Condition: c.Condition, TemperatureC: c.TemperatureC}
		applied = append(applied, c)
		s.next++
	}
	return applied
}

// Done reports whether all changes have been applied.
func (s *WeatherSchedule) Done() bool { return s.next >= len(s.changes) }

// Rewind rewinds the schedule's cursor so the full script replays from
// t=0. Rigs that take an externally supplied schedule call this on
// construction, so a schedule passed to several rigs behaves in each
// exactly like a freshly built one.
func (s *WeatherSchedule) Rewind() { s.next = 0 }
