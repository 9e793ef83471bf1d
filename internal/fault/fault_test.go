package fault

import (
	"testing"
	"time"

	"coopmrm/internal/sim"
)

type recHandler struct {
	applied []Fault
	cleared []Fault
}

func (r *recHandler) ApplyFault(f Fault) { r.applied = append(r.applied, f) }
func (r *recHandler) ClearFault(f Fault) { r.cleared = append(r.cleared, f) }

func TestKindString(t *testing.T) {
	if KindSensor.String() != "sensor" || KindBrake.String() != "brake" {
		t.Error("kind names wrong")
	}
	if Kind(77).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestFaultValidate(t *testing.T) {
	good := []Fault{
		{ID: "perm", Target: "v1", Kind: KindSensor, Severity: 1, Permanent: true},
		{ID: "transient", Target: "v1", Kind: KindSensor, Severity: 1,
			At: time.Second, ClearAt: 10 * time.Second},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("good fault %q invalid: %v", f.ID, err)
		}
	}
	bad := []Fault{
		{ID: "no-target", Kind: KindSensor, Severity: 1, Permanent: true},
		{ID: "sev0", Target: "v", Kind: KindSensor, Severity: 0, Permanent: true},
		{ID: "sev2", Target: "v", Kind: KindSensor, Severity: 2, Permanent: true},
		{ID: "clears-early", Target: "v", Kind: KindSensor, Severity: 1,
			At: 10 * time.Second, ClearAt: 5 * time.Second},
		// Regression: a non-permanent fault with ClearAt unset used to
		// pass validation but was never cleared by the injector —
		// permanent behaviour without requiring repair.
		{ID: "never-clears", Target: "v", Kind: KindSensor, Severity: 1,
			At: 10 * time.Second},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("fault %q should be invalid", f.ID)
		}
	}
}

// The companion path to the never-clears rejection: Schedule defaults
// a missing ClearAt to At + DefaultClear, so the fault actually clears.
func TestScheduleDefaultsMissingClearAt(t *testing.T) {
	h := &recHandler{}
	in := NewInjector(nil)
	in.RegisterHandler("v1", h)
	if err := in.Schedule(Fault{ID: "fog", Target: "v1", Kind: KindSensor,
		Severity: 0.5, At: 2 * time.Second}); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	in.Step(2 * time.Second)
	if len(h.applied) != 1 {
		t.Fatal("not applied")
	}
	if got := h.applied[0].ClearAt; got != 2*time.Second+DefaultClear {
		t.Errorf("defaulted ClearAt = %v, want %v", got, 2*time.Second+DefaultClear)
	}
	in.Step(2*time.Second + DefaultClear - time.Millisecond)
	if len(h.cleared) != 0 {
		t.Error("cleared early")
	}
	in.Step(2*time.Second + DefaultClear)
	if len(h.cleared) != 1 {
		t.Error("defaulted fault never cleared")
	}
}

func TestInjectorAppliesAtOnset(t *testing.T) {
	h := &recHandler{}
	in := NewInjector(nil)
	in.RegisterHandler("v1", h)
	in.MustSchedule(Fault{ID: "f1", Target: "v1", Kind: KindSensor, Severity: 1,
		At: 5 * time.Second, Permanent: true})

	in.Step(4 * time.Second)
	if len(h.applied) != 0 {
		t.Error("applied early")
	}
	if len(in.pending) != 1 {
		t.Errorf("pending = %d", len(in.pending))
	}
	in.Step(5 * time.Second)
	if len(h.applied) != 1 || h.applied[0].ID != "f1" {
		t.Errorf("applied = %+v", h.applied)
	}
	if len(in.pending) != 0 || len(in.Applied()) != 1 {
		t.Error("bookkeeping wrong")
	}
	// Permanent: never clears.
	in.Step(time.Hour)
	if len(h.cleared) != 0 {
		t.Error("permanent fault cleared itself")
	}
}

func TestInjectorSelfClearing(t *testing.T) {
	h := &recHandler{}
	in := NewInjector(nil)
	in.RegisterHandler("v1", h)
	in.MustSchedule(Fault{ID: "rain", Target: "v1", Kind: KindSensor, Severity: 0.5,
		At: time.Second, ClearAt: 10 * time.Second})
	in.Step(time.Second)
	if len(h.applied) != 1 {
		t.Fatal("not applied")
	}
	in.Step(9 * time.Second)
	if len(h.cleared) != 0 {
		t.Error("cleared early")
	}
	in.Step(10 * time.Second)
	if len(h.cleared) != 1 || h.cleared[0].ID != "rain" {
		t.Errorf("cleared = %+v", h.cleared)
	}
}

func TestInjectorOrderAndLog(t *testing.T) {
	var events []string
	in := NewInjector(func(ev string, f Fault) { events = append(events, ev+":"+f.ID) })
	h := &recHandler{}
	in.RegisterHandler("v1", h)
	// Scheduled out of order; must apply in time order.
	in.MustSchedule(
		Fault{ID: "late", Target: "v1", Kind: KindBrake, Severity: 1, At: 20 * time.Second, Permanent: true},
		Fault{ID: "early", Target: "v1", Kind: KindSensor, Severity: 1, At: 2 * time.Second, Permanent: true},
	)
	in.Step(time.Minute)
	if len(h.applied) != 2 || h.applied[0].ID != "early" || h.applied[1].ID != "late" {
		t.Errorf("apply order = %+v", h.applied)
	}
	if len(events) != 2 || events[0] != "inject:early" {
		t.Errorf("events = %v", events)
	}
}

func TestInjectorUnregisteredTarget(t *testing.T) {
	in := NewInjector(nil)
	in.MustSchedule(Fault{ID: "f", Target: "ghost", Kind: KindSensor, Severity: 1, Permanent: true})
	in.Step(0) // must not panic
	if len(in.Applied()) != 1 {
		t.Error("fault should still be recorded")
	}
}

func TestInjectorHook(t *testing.T) {
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	h := &recHandler{}
	in := NewInjector(nil)
	in.RegisterHandler("v1", h)
	in.MustSchedule(Fault{ID: "f", Target: "v1", Kind: KindComm, Severity: 1,
		At: 300 * time.Millisecond, Permanent: true})
	e.AddPreHook(in.Hook())
	e.RunFor(time.Second)
	if len(h.applied) != 1 {
		t.Error("hook did not inject")
	}
}

func TestCommonCause(t *testing.T) {
	root := Fault{ID: "rain", Kind: KindSensor, Severity: 0.6, At: time.Second, ClearAt: time.Minute}
	fs := CommonCause(root, "f1", "f2", "f3")
	if len(fs) != 3 {
		t.Fatalf("len = %d", len(fs))
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if f.Kind != KindSensor || f.At != time.Second {
			t.Errorf("member fault differs: %+v", f)
		}
		seen[f.Target] = true
		if f.ID == root.ID {
			t.Error("member ID should be suffixed")
		}
	}
	if !seen["f1"] || !seen["f2"] || !seen["f3"] {
		t.Error("targets wrong")
	}
}

func TestRandomCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{
		Targets: []string{"a", "b", "c"},
		Kinds:   []Kind{KindSensor, KindBrake},
		Rate:    2.5,
		Horizon: 5 * time.Minute,
	}
	a := RandomCampaign(cfg, sim.NewRNG(3))
	b := RandomCampaign(cfg, sim.NewRNG(3))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("campaigns differ for same seed")
		}
	}
	if len(a) == 0 {
		t.Fatal("campaign empty")
	}
	for i, f := range a {
		if err := f.Validate(); err != nil {
			t.Errorf("generated fault invalid: %v", err)
		}
		if f.At > cfg.Horizon {
			t.Error("onset beyond horizon")
		}
		if i > 0 && a[i-1].At > f.At {
			t.Error("campaign not sorted")
		}
		if !f.Permanent && f.ClearAt <= f.At {
			t.Error("self-clearing fault without clear time")
		}
	}
}

// The per-target event count must be genuinely Poisson(Rate). The old
// thinning loop produced floor(Rate) + Bernoulli(frac(Rate)), whose
// variance is at most 0.25 instead of Rate — seed sweeps understated
// campaign-to-campaign variability by an order of magnitude.
func TestRandomCampaignPoissonMoments(t *testing.T) {
	const rate = 3.0
	cfg := CampaignConfig{
		Targets: []string{"only"},
		Kinds:   []Kind{KindSensor},
		Rate:    rate,
		Horizon: 10 * time.Minute,
	}
	const trials = 4000
	var sum, sumSq float64
	for seed := int64(1); seed <= trials; seed++ {
		n := float64(len(RandomCampaign(cfg, sim.NewRNG(seed))))
		sum += n
		sumSq += n * n
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if mean < rate-0.15 || mean > rate+0.15 {
		t.Errorf("empirical mean = %.3f, want ~%.1f", mean, rate)
	}
	// Poisson: variance == mean. The old draw had variance ~0 here.
	if variance < rate-0.4 || variance > rate+0.4 {
		t.Errorf("empirical variance = %.3f, want ~%.1f (index of dispersion %.2f)",
			variance, rate, variance/mean)
	}
}

// Fractional rates below one must sometimes produce zero events and
// sometimes several — the thinning loop could never draw n >= 2.
func TestRandomCampaignLowRateDispersion(t *testing.T) {
	cfg := CampaignConfig{
		Targets: []string{"only"},
		Kinds:   []Kind{KindSensor},
		Rate:    0.7,
		Horizon: 10 * time.Minute,
	}
	counts := map[int]int{}
	for seed := int64(1); seed <= 2000; seed++ {
		counts[len(RandomCampaign(cfg, sim.NewRNG(seed)))]++
	}
	if counts[0] == 0 {
		t.Error("rate 0.7 never produced an empty campaign")
	}
	multi := 0
	for n, c := range counts {
		if n >= 2 {
			multi += c
		}
	}
	// P(N>=2 | mean 0.7) ~ 15.6%; the old draw gave exactly 0.
	if multi == 0 {
		t.Error("rate 0.7 never produced 2+ events: not a Poisson draw")
	}
}

func TestRandomCampaignEmptyConfigs(t *testing.T) {
	rng := sim.NewRNG(1)
	if got := RandomCampaign(CampaignConfig{}, rng); len(got) != 0 {
		t.Error("empty config should produce nothing")
	}
	if got := RandomCampaign(CampaignConfig{Targets: []string{"a"}, Kinds: []Kind{KindSensor}}, rng); len(got) != 0 {
		t.Error("zero horizon should produce nothing")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindSensor, KindBrake, KindSteering, KindPropulsion,
		KindComm, KindTool, KindLocalization} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("gremlins"); err == nil {
		t.Error("unknown kind should error")
	}
}
