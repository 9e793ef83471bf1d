// Package vehicle models the physical constituents of a cooperative or
// collaborative system: vehicle kinds with kinematic limits, a
// path-following kinematic body with actuation-failure effects, and
// the capability vector that the MRM/MRC logic reasons over.
package vehicle

import "fmt"

// Kind enumerates vehicle/machine types used across the paper's
// examples.
type Kind int

// Vehicle kinds.
const (
	KindCar Kind = iota + 1
	KindTruck
	KindDigger
	KindCrane
	KindForklift
)

var kindNames = map[Kind]string{
	KindCar:      "car",
	KindTruck:    "truck",
	KindDigger:   "digger",
	KindCrane:    "crane",
	KindForklift: "forklift",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a vehicle-kind name ("truck", "digger", ...).
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("vehicle: unknown kind %q", name)
}

// Spec holds the static physical parameters of a vehicle kind.
type Spec struct {
	Kind           Kind
	Length         float64 // m
	Width          float64 // m
	MaxSpeed       float64 // m/s
	MaxAccel       float64 // m/s^2
	ServiceDecel   float64 // m/s^2, comfortable braking
	EmergencyDecel float64 // m/s^2, hard braking
	// SensorRange is the nominal perception range in clear weather.
	SensorRange float64 // m
	// HasTool marks machines with a work tool (scoop, crane arm,
	// forks) whose actuation is itself a safety-relevant manoeuvre
	// per the paper's extended MRM interpretation.
	HasTool bool
}

// DefaultSpec returns the standard spec for a kind. Scenarios may
// modify the returned value.
func DefaultSpec(k Kind) Spec {
	switch k {
	case KindCar:
		return Spec{Kind: k, Length: 4.5, Width: 1.9, MaxSpeed: 33, MaxAccel: 2.5,
			ServiceDecel: 3.0, EmergencyDecel: 8.0, SensorRange: 150}
	case KindTruck:
		return Spec{Kind: k, Length: 10, Width: 2.6, MaxSpeed: 25, MaxAccel: 1.2,
			ServiceDecel: 2.0, EmergencyDecel: 6.0, SensorRange: 120}
	case KindDigger:
		return Spec{Kind: k, Length: 8, Width: 3.2, MaxSpeed: 5, MaxAccel: 0.8,
			ServiceDecel: 1.5, EmergencyDecel: 4.0, SensorRange: 60, HasTool: true}
	case KindCrane:
		return Spec{Kind: k, Length: 12, Width: 6, MaxSpeed: 1.5, MaxAccel: 0.3,
			ServiceDecel: 0.8, EmergencyDecel: 2.0, SensorRange: 80, HasTool: true}
	case KindForklift:
		return Spec{Kind: k, Length: 4, Width: 2, MaxSpeed: 6, MaxAccel: 1.0,
			ServiceDecel: 2.0, EmergencyDecel: 5.0, SensorRange: 40, HasTool: true}
	default:
		return Spec{Kind: k, Length: 5, Width: 2, MaxSpeed: 10, MaxAccel: 1,
			ServiceDecel: 2, EmergencyDecel: 5, SensorRange: 80}
	}
}

// StoppingDistance returns the distance needed to stop from speed v at
// deceleration a (v^2 / 2a). A non-positive a yields +Inf-like large
// values are avoided by returning a very large sentinel through the
// caller's own guard; here a is assumed positive.
func StoppingDistance(v, a float64) float64 {
	if a <= 0 {
		return 1e18
	}
	return v * v / (2 * a)
}

// Capabilities is the operational capability vector the ADS and the
// MRM/MRC logic reason over. Faults and weather reduce fields; the
// tactical layer decides whether reduced capabilities can be absorbed
// (degradation, Def. 4) or force an MRC.
type Capabilities struct {
	// PerceptionRange is the current effective sensing range in m.
	PerceptionRange float64
	// MaxSpeed is the current usable speed bound in m/s.
	MaxSpeed float64
	// ServiceBrake reports whether controlled (comfort) braking works.
	ServiceBrake bool
	// EmergencyBrake reports whether hard braking works. A vehicle
	// that cannot brake at all is a runaway and must be handled by
	// concerted means.
	EmergencyBrake bool
	// Steering reports whether lateral control works (needed for any
	// MRM that leaves the current lane or path).
	Steering bool
	// Propulsion reports whether the vehicle can accelerate.
	Propulsion bool
	// Tool reports whether the work tool is operational.
	Tool bool
	// Localization reports whether the vehicle knows its own pose.
	Localization bool
}

// FullCapabilities returns the nominal capability vector for a spec.
func FullCapabilities(s Spec) Capabilities {
	return Capabilities{
		PerceptionRange: s.SensorRange,
		MaxSpeed:        s.MaxSpeed,
		ServiceBrake:    true,
		EmergencyBrake:  true,
		Steering:        true,
		Propulsion:      true,
		Tool:            s.HasTool,
		Localization:    true,
	}
}

// CanLead reports whether the capability vector qualifies for a
// platoon-leader role, which per the paper's case (iv) requires
// extended forward perception.
func (c Capabilities) CanLead(requiredRange float64) bool {
	return c.PerceptionRange >= requiredRange && c.Steering && c.ServiceBrake &&
		c.Propulsion && c.Localization
}
