// Package fault defines the failure model and the injection machinery
// used by experiments: typed faults with onset/clear schedules,
// handler registration per constituent, common-cause groups (one root
// cause hitting several constituents at once, cf. ISO 26262 dependent
// failure analysis), and randomized fault campaigns for statistical
// experiments.
package fault

import (
	"fmt"
	"math"
	"sort"
	"time"

	"coopmrm/internal/sim"
)

// Kind enumerates the failure classes used across the paper's
// examples.
type Kind int

// Fault kinds.
const (
	KindSensor Kind = iota + 1
	KindBrake
	KindSteering
	KindPropulsion
	KindComm
	KindTool
	KindLocalization
)

var kindNames = map[Kind]string{
	KindSensor:       "sensor",
	KindBrake:        "brake",
	KindSteering:     "steering",
	KindPropulsion:   "propulsion",
	KindComm:         "comm",
	KindTool:         "tool",
	KindLocalization: "localization",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault_kind(%d)", int(k))
}

// ParseKind resolves a fault-kind name ("sensor", "brake", ...).
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", name)
}

// Fault is one failure event.
type Fault struct {
	ID     string
	Target string // constituent ID
	Kind   Kind
	// Detail narrows the fault, e.g. the sensor name for KindSensor.
	Detail string
	// Severity in (0, 1]: 1 is total loss, fractions are degradations.
	Severity float64
	// Permanent faults need repair (user intervention) to clear;
	// non-permanent faults clear themselves at ClearAt.
	Permanent bool
	At        time.Duration
	ClearAt   time.Duration // ignored for permanent faults
}

// DefaultClear is the clear delay assumed for self-clearing faults
// that do not specify one: Schedule defaults ClearAt to At +
// DefaultClear, and RandomCampaign uses it as the MeanClear fallback.
const DefaultClear = 30 * time.Second

// Validate reports configuration errors. A non-permanent fault must
// carry a ClearAt strictly after its onset: with ClearAt left zero it
// would silently never clear, behaving like a permanent fault without
// requiring repair (Schedule defaults the field before validating).
func (f Fault) Validate() error {
	if f.Target == "" {
		return fmt.Errorf("fault %q: empty target", f.ID)
	}
	if f.Severity <= 0 || f.Severity > 1 {
		return fmt.Errorf("fault %q: severity %v out of (0,1]", f.ID, f.Severity)
	}
	if !f.Permanent {
		if f.ClearAt == 0 {
			return fmt.Errorf("fault %q: non-permanent fault never clears (ClearAt unset)", f.ID)
		}
		if f.ClearAt < f.At {
			return fmt.Errorf("fault %q: clears before onset", f.ID)
		}
	}
	return nil
}

// Handler receives fault applications and clears for one constituent.
type Handler interface {
	ApplyFault(f Fault)
	ClearFault(f Fault)
}

// Injector applies a schedule of faults to registered handlers as
// simulated time advances.
type Injector struct {
	handlers map[string]Handler
	pending  []Fault // sorted by At
	active   []Fault // applied, awaiting ClearAt (non-permanent)
	applied  []Fault // full history
	log      func(event string, f Fault)
}

// NewInjector returns an empty injector. The optional log callback
// observes "inject"/"clear" events.
func NewInjector(log func(event string, f Fault)) *Injector {
	return &Injector{
		handlers: make(map[string]Handler),
		log:      log,
	}
}

// RegisterHandler attaches the handler for a constituent ID.
func (in *Injector) RegisterHandler(id string, h Handler) {
	in.handlers[id] = h
}

// Schedule adds faults to the plan. A non-permanent fault with no
// ClearAt is defaulted to At + DefaultClear (so it actually clears);
// any remaining configuration error is returned.
func (in *Injector) Schedule(faults ...Fault) error {
	for i, f := range faults {
		if f.ID == "" {
			f.ID = fmt.Sprintf("fault-%d-%d", len(in.pending), i)
			faults[i] = f
		}
		if !f.Permanent && f.ClearAt == 0 {
			f.ClearAt = f.At + DefaultClear
			faults[i] = f
		}
		if err := f.Validate(); err != nil {
			return err
		}
	}
	in.pending = append(in.pending, faults...)
	sort.SliceStable(in.pending, func(i, j int) bool {
		return in.pending[i].At < in.pending[j].At
	})
	return nil
}

// MustSchedule is Schedule that panics on error.
func (in *Injector) MustSchedule(faults ...Fault) {
	if err := in.Schedule(faults...); err != nil {
		panic(err)
	}
}

// Step applies all faults due at or before now and clears expired
// non-permanent faults.
func (in *Injector) Step(now time.Duration) {
	for len(in.pending) > 0 && in.pending[0].At <= now {
		f := in.pending[0]
		in.pending = in.pending[1:]
		if h, ok := in.handlers[f.Target]; ok {
			h.ApplyFault(f)
		}
		in.applied = append(in.applied, f)
		if !f.Permanent && f.ClearAt > 0 {
			in.active = append(in.active, f)
		}
		if in.log != nil {
			in.log("inject", f)
		}
	}
	var still []Fault
	for _, f := range in.active {
		if f.ClearAt <= now {
			if h, ok := in.handlers[f.Target]; ok {
				h.ClearFault(f)
			}
			if in.log != nil {
				in.log("clear", f)
			}
		} else {
			still = append(still, f)
		}
	}
	in.active = still
}

// Applied returns the history of injected faults.
func (in *Injector) Applied() []Fault {
	out := make([]Fault, len(in.applied))
	copy(out, in.applied)
	return out
}

// Hook returns a sim pre-step hook that injects due faults each tick.
func (in *Injector) Hook() sim.Hook {
	return func(env *sim.Env) { in.Step(env.Clock.Now()) }
}

// CommonCause expands one root cause into identical faults for every
// member of the group (the paper's "heavy rain incapacitates all
// forklifts" case). IDs are suffixed with the member ID.
func CommonCause(root Fault, members ...string) []Fault {
	out := make([]Fault, 0, len(members))
	for _, m := range members {
		f := root
		f.ID = root.ID + "@" + m
		f.Target = m
		out = append(out, f)
	}
	return out
}

// CampaignConfig parameterises a random fault campaign.
type CampaignConfig struct {
	Targets []string
	Kinds   []Kind
	// Rate is the expected number of faults per target over Horizon.
	Rate          float64
	Horizon       time.Duration
	PermanentProb float64
	// MeanClear is the mean duration of self-clearing faults.
	MeanClear time.Duration
}

// RandomCampaign draws a deterministic random fault schedule from the
// RNG: each target receives a Poisson(Rate)-distributed number of
// faults with uniform onsets over the horizon. Severity is drawn in
// [0.5, 1].
func RandomCampaign(cfg CampaignConfig, rng *sim.RNG) []Fault {
	var out []Fault
	if len(cfg.Kinds) == 0 || cfg.Horizon <= 0 {
		return out
	}
	for _, target := range cfg.Targets {
		n := poisson(cfg.Rate, rng)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Range(0, float64(cfg.Horizon)))
			f := Fault{
				ID:        fmt.Sprintf("camp-%s-%d", target, i),
				Target:    target,
				Kind:      cfg.Kinds[rng.Intn(len(cfg.Kinds))],
				Severity:  rng.Range(0.5, 1.0),
				Permanent: rng.Bool(cfg.PermanentProb),
				At:        at,
			}
			if !f.Permanent {
				mean := cfg.MeanClear
				if mean <= 0 {
					mean = DefaultClear
				}
				f.ClearAt = at + time.Duration(rng.Range(0.5, 1.5)*float64(mean))
			}
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// poisson draws a Poisson-distributed count with the given mean using
// Knuth's inversion method, consuming only uniforms from the shared
// deterministic stream. Means large enough to underflow exp(-mean) are
// split into chunks (Poisson means are additive), so the draw stays
// exact for any campaign rate.
func poisson(mean float64, rng *sim.RNG) int {
	n := 0
	for mean > 500 {
		n += poisson(500, rng)
		mean -= 500
	}
	if mean <= 0 {
		return n
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return n + k
		}
		k++
	}
}
