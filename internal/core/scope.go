package core

import (
	"fmt"
	"sort"
)

// ScopeLevel is the level of an MRC decision in the Fig. 2 hierarchy.
type ScopeLevel int

// Scope levels.
const (
	// ScopeNone: no MRC needed (nothing failed).
	ScopeNone ScopeLevel = iota + 1
	// ScopeLocal: one or a group of constituents go to MRC; the rest
	// continue the (possibly reduced) strategic goal. Definition 2.
	ScopeLocal
	// ScopeGlobal: every constituent goes to MRC; the strategic goal
	// is abandoned. Definition 1.
	ScopeGlobal
)

var scopeNames = map[ScopeLevel]string{
	ScopeNone:   "none",
	ScopeLocal:  "local",
	ScopeGlobal: "global",
}

// String implements fmt.Stringer.
func (l ScopeLevel) String() string {
	if s, ok := scopeNames[l]; ok {
		return s
	}
	return fmt.Sprintf("scope(%d)", int(l))
}

// ScopeDecision is the outcome of resolving which constituents an MRC
// must cover.
type ScopeDecision struct {
	Level ScopeLevel
	// Affected are the constituents that must reach MRC, sorted.
	Affected []string
	// Continuing are the constituents that keep pursuing the
	// strategic goal (possibly with reduced productivity), sorted.
	Continuing []string
	// Reasons maps each affected constituent to why it is affected
	// ("failed" or "stranded: needs role X").
	Reasons map[string]string
}

// DependencyModel captures the role structure of a collaborative
// system: each constituent provides a role, and needs one provider of
// each required role to remain productive. A digger/truck pair is
// {digger provides "digger", requires "truck"; truck provides
// "truck", requires "digger"}. Failures cascade through role
// starvation, reproducing the paper's dependent-failure discussion.
type DependencyModel struct {
	provides map[string]string
	requires map[string][]string
	order    []string
}

// NewDependencyModel returns an empty model.
func NewDependencyModel() *DependencyModel {
	return &DependencyModel{
		provides: make(map[string]string),
		requires: make(map[string][]string),
	}
}

// AddConstituent declares a constituent, the role it provides, and
// the roles it requires to stay productive. Duplicate IDs error.
func (m *DependencyModel) AddConstituent(id, providesRole string, requiresRoles ...string) error {
	if id == "" {
		return fmt.Errorf("core: constituent with empty ID")
	}
	if _, dup := m.provides[id]; dup {
		return fmt.Errorf("core: duplicate constituent %q", id)
	}
	m.provides[id] = providesRole
	req := make([]string, len(requiresRoles))
	copy(req, requiresRoles)
	m.requires[id] = req
	m.order = append(m.order, id)
	return nil
}

// MustAddConstituent is AddConstituent that panics on error.
func (m *DependencyModel) MustAddConstituent(id, providesRole string, requiresRoles ...string) {
	if err := m.AddConstituent(id, providesRole, requiresRoles...); err != nil {
		panic(err)
	}
}

// Constituents returns all constituent IDs in declaration order.
func (m *DependencyModel) Constituents() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Role returns the role a constituent provides.
func (m *DependencyModel) Role(id string) (string, bool) {
	r, ok := m.provides[id]
	return r, ok
}

// ResolveScope computes the minimal MRC scope when the given
// constituents have failed (must stop). Cascading is applied to a
// fixed point: a constituent is stranded when some required role has
// no operational provider left. If every constituent ends up
// affected, the decision escalates to a global MRC (Definition 1);
// otherwise it is local (Definition 2); with no failures it is none.
func (m *DependencyModel) ResolveScope(failed ...string) ScopeDecision {
	affected := make(map[string]string) // id -> reason
	for _, f := range failed {
		if _, known := m.provides[f]; known {
			affected[f] = "failed"
		}
	}
	if len(affected) == 0 {
		return ScopeDecision{
			Level:      ScopeNone,
			Continuing: m.Constituents(),
			Reasons:    map[string]string{},
		}
	}
	// Fixed point: strand constituents whose required roles lost all
	// providers.
	for changed := true; changed; {
		changed = false
		// Count operational providers per role.
		providers := make(map[string]int)
		for _, id := range m.order {
			if _, down := affected[id]; !down {
				providers[m.provides[id]]++
			}
		}
		for _, id := range m.order {
			if _, down := affected[id]; down {
				continue
			}
			for _, need := range m.requires[id] {
				if providers[need] == 0 {
					affected[id] = "stranded: no provider of role " + need
					changed = true
					break
				}
			}
		}
	}

	var dec ScopeDecision
	dec.Reasons = affected
	for _, id := range m.order {
		if _, down := affected[id]; down {
			dec.Affected = append(dec.Affected, id)
		} else {
			dec.Continuing = append(dec.Continuing, id)
		}
	}
	sort.Strings(dec.Affected)
	sort.Strings(dec.Continuing)
	if len(dec.Continuing) == 0 {
		dec.Level = ScopeGlobal
	} else {
		dec.Level = ScopeLocal
	}
	return dec
}

// GranularityLevels enumerates the Fig. 2 alternatives for a system
// partitioned into groups: given group membership, an MRC policy can
// stop (a) only the failed constituent's group member set at the
// finest level, (b) the whole group, or (c) the whole system.
type Granularity int

// Granularity levels for experiment E2 (Fig. 2).
const (
	// GranularityConstituent stops only the minimal affected set.
	GranularityConstituent Granularity = iota + 1
	// GranularityGroup stops the whole group of the failed
	// constituent (intermediate level in Fig. 2).
	GranularityGroup
	// GranularityGlobal always stops the entire system.
	GranularityGlobal
)

var granularityNames = map[Granularity]string{
	GranularityConstituent: "per_constituent",
	GranularityGroup:       "per_group",
	GranularityGlobal:      "global_only",
}

// String implements fmt.Stringer.
func (g Granularity) String() string {
	if s, ok := granularityNames[g]; ok {
		return s
	}
	return fmt.Sprintf("granularity(%d)", int(g))
}

// ApplyGranularity widens a minimal scope decision to the configured
// granularity given a group assignment (constituent ID -> group
// name). The returned decision never shrinks the affected set.
func ApplyGranularity(dec ScopeDecision, g Granularity, groups map[string]string, all []string) ScopeDecision {
	switch g {
	case GranularityConstituent:
		return dec
	case GranularityGlobal:
		if dec.Level == ScopeNone {
			return dec
		}
		out := ScopeDecision{Level: ScopeGlobal, Reasons: map[string]string{}}
		out.Affected = append(out.Affected, all...)
		sort.Strings(out.Affected)
		for _, id := range out.Affected {
			if r, ok := dec.Reasons[id]; ok {
				out.Reasons[id] = r
			} else {
				out.Reasons[id] = "policy: global-only MRC"
			}
		}
		return out
	case GranularityGroup:
		if dec.Level == ScopeNone {
			return dec
		}
		hit := make(map[string]bool)
		for _, id := range dec.Affected {
			hit[groups[id]] = true
		}
		out := ScopeDecision{Reasons: map[string]string{}}
		for _, id := range all {
			if contains(dec.Affected, id) {
				out.Affected = append(out.Affected, id)
				out.Reasons[id] = dec.Reasons[id]
			} else if hit[groups[id]] {
				out.Affected = append(out.Affected, id)
				out.Reasons[id] = "policy: group " + groups[id] + " stops together"
			} else {
				out.Continuing = append(out.Continuing, id)
			}
		}
		sort.Strings(out.Affected)
		sort.Strings(out.Continuing)
		if len(out.Continuing) == 0 {
			out.Level = ScopeGlobal
		} else {
			out.Level = ScopeLocal
		}
		return out
	default:
		return dec
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
