package core

import (
	"testing"
	"testing/quick"

	"coopmrm/internal/geom"
	"coopmrm/internal/vehicle"
)

// capsFrom decodes a random byte into a capability vector, exercising
// every feasibility gate combination.
func capsFrom(bits uint8, rangeM float64) vehicle.Capabilities {
	return vehicle.Capabilities{
		PerceptionRange: rangeM,
		MaxSpeed:        25,
		ServiceBrake:    bits&1 != 0,
		EmergencyBrake:  bits&2 != 0,
		Steering:        bits&4 != 0,
		Propulsion:      bits&8 != 0,
		Localization:    true,
	}
}

// Property: Select returns a feasible MRC, and no strictly lower-risk
// MRC in the hierarchy is feasible (optimality of the risk-ordered
// selection).
func TestSelectOptimalityProperty(t *testing.T) {
	h := DefaultRoadHierarchy()
	w := roadWorld()
	f := func(bits uint8, rawRange uint16) bool {
		caps := capsFrom(bits, float64(rawRange%200))
		pos := geom.V(float64(rawRange%900), 2)
		m, zone, ok := h.Select(caps, pos, w)
		if !ok {
			// Nothing feasible: then every MRC must be infeasible.
			for _, cand := range h.MRCs() {
				if _, feasible := cand.Feasible(caps, pos, w); feasible {
					return false
				}
			}
			return true
		}
		// The selected MRC must itself be feasible...
		if _, feasible := m.Feasible(caps, pos, w); !feasible {
			return false
		}
		if m.TargetZone != 0 && zone.ID == "" {
			return false
		}
		// ...and no strictly lower-risk candidate may be feasible.
		for _, cand := range h.MRCs() {
			if cand.Risk >= m.Risk {
				break
			}
			if _, feasible := cand.Feasible(caps, pos, w); feasible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: SelectBelow returns a feasible MRC strictly riskier than
// the current one — including synthetic current MRCs that do not
// appear in the hierarchy — and nothing less risky below it is
// feasible.
func TestSelectBelowProperty(t *testing.T) {
	h := DefaultRoadHierarchy()
	w := roadWorld()
	ids := []string{"rest_stop", "shoulder", "in_lane", "emergency"}
	f := func(bits uint8, idIdx uint8, rawRange uint16, synthetic bool) bool {
		caps := capsFrom(bits, float64(rawRange%200))
		pos := geom.V(float64(rawRange%900), 2)
		var current MRC
		if synthetic {
			// A synthetic current MRC (the executor's in_place_fallback
			// / helpless shapes) with a risk between hierarchy entries.
			current = MRC{ID: "synthetic", Stop: StopInPlace,
				Risk: 0.05 + float64(idIdx%10)*0.1}
		} else {
			current, _ = h.ByID(ids[int(idIdx)%len(ids)])
		}
		m, _, ok := h.SelectBelow(current, caps, pos, w)
		if !ok {
			// Then nothing strictly riskier may be feasible.
			for _, cand := range h.MRCs() {
				if cand.Risk <= current.Risk {
					continue
				}
				if _, feasible := cand.Feasible(caps, pos, w); feasible {
					return false
				}
			}
			return true
		}
		if m.Risk <= current.Risk {
			return false
		}
		if _, feasible := m.Feasible(caps, pos, w); !feasible {
			return false
		}
		// Optimality below the current risk: no feasible candidate
		// strictly between current and the selection.
		for _, cand := range h.MRCs() {
			if cand.Risk <= current.Risk || cand.Risk >= m.Risk {
				continue
			}
			if _, feasible := cand.Feasible(caps, pos, w); feasible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: scope resolution always partitions the constituent set,
// never resurrects a failed constituent, and is monotone: adding a
// failure never shrinks the affected set.
func TestResolveScopeProperties(t *testing.T) {
	m := NewDependencyModel()
	m.MustAddConstituent("d1", "digger", "truck")
	m.MustAddConstituent("d2", "digger", "truck")
	m.MustAddConstituent("t1", "truck", "digger")
	m.MustAddConstituent("t2", "truck", "digger")
	m.MustAddConstituent("t3", "truck", "digger")
	all := m.Constituents()

	f := func(mask uint8, extra uint8) bool {
		var failed []string
		for i, id := range all {
			if mask&(1<<i) != 0 {
				failed = append(failed, id)
			}
		}
		dec := m.ResolveScope(failed...)
		if len(dec.Affected)+len(dec.Continuing) != len(all) {
			return false
		}
		// Every explicitly failed constituent is affected.
		for _, fid := range failed {
			if !inSlice(dec.Affected, fid) {
				return false
			}
		}
		// Monotonicity: add one more failure.
		addID := all[int(extra)%len(all)]
		dec2 := m.ResolveScope(append(append([]string{}, failed...), addID)...)
		for _, a := range dec.Affected {
			if !inSlice(dec2.Affected, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func inSlice(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
