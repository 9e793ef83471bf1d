package core

import (
	"fmt"
	"math"

	"coopmrm/internal/odd"
	"coopmrm/internal/vehicle"
)

// AssessmentKind classifies the outcome of a capability-change
// assessment, following Sec. III-B of the paper.
type AssessmentKind int

// Assessment outcomes.
const (
	// AssessNominal: full capability, no adaptation needed.
	AssessNominal AssessmentKind = iota + 1
	// AssessDegradedTemporary: tactical adaptation absorbs the change
	// and the cause clears itself (case ii: rain). No user
	// intervention needed to recover.
	AssessDegradedTemporary
	// AssessDegradedPermanent: tactical adaptation absorbs the change
	// but repair is needed to restore nominal performance (case i:
	// broken long-range radar). Definition 4.
	AssessDegradedPermanent
	// AssessRequireMRM: the change is an ADS performance-critical
	// failure or (near) ODD exit; the only option is an MRC.
	AssessRequireMRM
)

var assessmentNames = map[AssessmentKind]string{
	AssessNominal:           "nominal",
	AssessDegradedTemporary: "degraded_temporary",
	AssessDegradedPermanent: "degraded_permanent",
	AssessRequireMRM:        "require_mrm",
}

// String implements fmt.Stringer.
func (k AssessmentKind) String() string {
	if s, ok := assessmentNames[k]; ok {
		return s
	}
	return fmt.Sprintf("assessment(%d)", int(k))
}

// Assessment is the decision of the degradation manager for one
// capability state.
type Assessment struct {
	Kind AssessmentKind
	// SpeedCap is the tactically adapted speed bound in m/s (equal to
	// the nominal max when no adaptation is needed).
	SpeedCap float64
	// Reason explains the decision for logs and safety cases.
	Reason string
}

// DegradationManager implements the tactical-adaptation decision of
// Definition 4: whether a capability change can be diagnosed and
// handled by tactical decisions without abandoning the strategic
// goal, and if not, that an MRC is required.
type DegradationManager struct {
	spec vehicle.Spec
}

// The conventional tactical bounds: a vehicle must keep at least
// minOperatingSpeed to remain useful and must be able to stop within
// its perception range divided by perceptionSafetyFactor.
const (
	// minOperatingSpeed is the lowest useful speed in m/s; if safe
	// operation requires going slower, the change cannot be absorbed
	// tactically.
	minOperatingSpeed = 1.0
	// perceptionSafetyFactor scales how much of the perception range
	// must cover the stopping distance (>= 1 keeps a buffer).
	perceptionSafetyFactor = 2.0
)

// NewDegradationManager returns the manager of a vehicle with spec.
func NewDegradationManager(spec vehicle.Spec) *DegradationManager {
	d := new(DegradationManager)
	d.Reinit(spec)
	return d
}

// Reinit resets the manager in place to NewDegradationManager(spec) —
// the warm-rig path reuses manager allocations across runs.
func (d *DegradationManager) Reinit(spec vehicle.Spec) {
	*d = DegradationManager{spec: spec}
}

// SafeSpeed returns the maximum speed at which the stopping distance
// (at service deceleration) stays within the perception range divided
// by the safety factor: v = sqrt(2 a r / factor), clamped to spec max.
func (d *DegradationManager) SafeSpeed(caps vehicle.Capabilities) float64 {
	a := d.spec.ServiceDecel
	if !caps.ServiceBrake {
		a = 0
	}
	if a <= 0 || caps.PerceptionRange <= 0 {
		return 0
	}
	v := math.Sqrt(2 * a * caps.PerceptionRange / perceptionSafetyFactor)
	return math.Min(v, math.Min(d.spec.MaxSpeed, caps.MaxSpeed))
}

// Assess decides how to respond to the current capability vector and
// ODD status. faultPermanent reports whether the active capability
// loss stems from a permanent fault (repair needed) as opposed to a
// self-clearing condition such as weather.
func (d *DegradationManager) Assess(caps vehicle.Capabilities, oddStatus odd.Status, faultPermanent bool) Assessment {
	// Outside the ODD: tactical adaptation is definitionally over.
	if !oddStatus.Inside {
		return Assessment{Kind: AssessRequireMRM, Reason: oddStatus.String()}
	}
	// Losses that no tactical decision can absorb.
	if !caps.Localization {
		return Assessment{Kind: AssessRequireMRM, Reason: "localization lost"}
	}
	if !caps.ServiceBrake {
		return Assessment{Kind: AssessRequireMRM, Reason: "service brake lost"}
	}
	if !caps.Steering {
		return Assessment{Kind: AssessRequireMRM, Reason: "steering lost"}
	}
	if !caps.Propulsion {
		return Assessment{Kind: AssessRequireMRM, Reason: "propulsion lost"}
	}
	// The paper extends "manoeuvre" to tool actuation: a machine whose
	// work tool fails cannot pursue its strategic goal at all, and per
	// the adopted MRC definition (a change of strategic goal when the
	// original cannot be fulfilled) the only option is an MRC.
	if d.spec.HasTool && !caps.Tool {
		return Assessment{Kind: AssessRequireMRM, Reason: "work tool lost"}
	}

	safe := d.SafeSpeed(caps)
	if safe < minOperatingSpeed {
		return Assessment{Kind: AssessRequireMRM,
			Reason: fmt.Sprintf("safe speed %.2f m/s below minimum %.2f m/s", safe, minOperatingSpeed)}
	}

	nominalSafe := d.SafeSpeed(vehicle.FullCapabilities(d.spec))
	if safe >= nominalSafe-1e-9 && caps.PerceptionRange >= d.spec.SensorRange-1e-9 {
		return Assessment{Kind: AssessNominal, SpeedCap: math.Min(d.spec.MaxSpeed, safe)}
	}
	kind := AssessDegradedTemporary
	if faultPermanent {
		kind = AssessDegradedPermanent
	}
	return Assessment{
		Kind:     kind,
		SpeedCap: safe,
		Reason: fmt.Sprintf("perception %.1fm: speed capped at %.2f m/s",
			caps.PerceptionRange, safe),
	}
}
