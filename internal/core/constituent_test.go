package core

import (
	"strings"
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// newRig builds an engine with one truck on a highway world.
func newRig(t *testing.T) (*sim.Engine, *Constituent, *world.World) {
	t.Helper()
	w := roadWorld()
	roadODD := odd.DefaultRoadSpec()
	c, err := NewConstituent(Config{
		ID:        "truck1",
		Spec:      vehicle.DefaultSpec(vehicle.KindTruck),
		Start:     geom.Pose{Pos: geom.V(100, 2)},
		ODD:       &roadODD,
		Hierarchy: DefaultRoadHierarchy(),
		World:     w,
		Goal:      "haul A->B",
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(c)
	return e, c, w
}

func TestModeString(t *testing.T) {
	if ModeNominal.String() != "nominal" || ModeMRC.String() != "mrc" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown should render")
	}
}

func TestNewConstituentValidation(t *testing.T) {
	if _, err := NewConstituent(Config{}); err == nil {
		t.Error("empty ID should error")
	}
	c := MustConstituent(Config{ID: "x"})
	if c.Mode() != ModeNominal || c.Goal() != "user_goal" {
		t.Error("defaults wrong")
	}
}

func TestNominalDriving(t *testing.T) {
	e, c, _ := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(400, 2))
	if err := c.Dispatch(p, 20); err != nil {
		t.Fatal(err)
	}
	e.RunFor(60 * time.Second)
	if !c.Body().Arrived() {
		t.Errorf("did not arrive: %v", c.Body().Position())
	}
	if c.Mode() != ModeNominal || c.Goal() != "haul A->B" {
		t.Errorf("mode %v goal %q", c.Mode(), c.Goal())
	}
}

// Sec. III-B case (i): permanent radar fault => permanent degradation,
// lower speed, goal kept.
func TestPermanentDegradation(t *testing.T) {
	e, c, _ := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(2000, 2))
	_ = c.Dispatch(p, 25)
	e.RunFor(5 * time.Second)
	c.ApplyFault(fault.Fault{ID: "radar", Target: "truck1", Kind: fault.KindSensor,
		Detail: "long_range_radar", Severity: 1, Permanent: true})
	e.RunFor(10 * time.Second)
	if c.Mode() != ModeDegraded {
		t.Fatalf("mode = %v, want degraded", c.Mode())
	}
	if c.Goal() != "haul A->B" {
		t.Error("degradation must not change the strategic goal")
	}
	if c.SpeedCap() >= c.Body().Spec().MaxSpeed {
		t.Errorf("speed cap %v not reduced", c.SpeedCap())
	}
	if c.Body().Speed() > c.SpeedCap()+1e-6 {
		t.Errorf("actual speed %v above cap %v", c.Body().Speed(), c.SpeedCap())
	}
	ev, ok := e.Env().Log.First(sim.EventDegraded)
	if !ok || ev.Fields["kind"] != "degraded_permanent" {
		t.Errorf("degraded event = %+v", ev)
	}
}

// Sec. III-B case (ii): rain-induced temporary degradation recovers
// without intervention once the rain clears.
func TestTemporaryDegradationRecovers(t *testing.T) {
	e, c, w := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(5000, 2))
	_ = c.Dispatch(p, 25)
	e.RunFor(2 * time.Second)
	w.Weather = world.Weather{Condition: HeavyRainCondition(), TemperatureC: 10}
	e.RunFor(5 * time.Second)
	if c.Mode() != ModeDegraded {
		t.Fatalf("mode = %v, want degraded in heavy rain", c.Mode())
	}
	ev, _ := e.Env().Log.First(sim.EventDegraded)
	if ev.Fields["kind"] != "degraded_temporary" {
		t.Errorf("kind = %q", ev.Fields["kind"])
	}
	w.Weather = world.Weather{Condition: world.Clear, TemperatureC: 10}
	e.RunFor(5 * time.Second)
	if c.Mode() != ModeNominal {
		t.Errorf("mode = %v after rain cleared, want nominal", c.Mode())
	}
	if c.Interventions() != 0 {
		t.Error("temporary degradation must not need intervention")
	}
}

// HeavyRainCondition avoids importing the world constant into every
// test line.
func HeavyRainCondition() world.Condition { return world.HeavyRain }

func TestPerceptionLossForcesMRM(t *testing.T) {
	e, c, _ := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(5000, 2))
	_ = c.Dispatch(p, 25)
	e.RunFor(2 * time.Second)
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(time.Second)
	if !c.MRMActive() && !c.InMRC() {
		t.Fatalf("mode = %v, want MRM/MRC", c.Mode())
	}
	// Blind => only in-lane stop is feasible.
	if c.CurrentMRC().ID != "in_lane" {
		t.Errorf("MRC = %v, want in_lane", c.CurrentMRC().ID)
	}
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("never reached MRC, mode = %v", c.Mode())
	}
	if got := c.Goal(); got != "mrc:in_lane" {
		t.Errorf("goal = %q; MRC must replace the strategic goal", got)
	}
	if e.Env().Log.Count(sim.EventMRCReached) != 1 {
		t.Error("expected exactly one MRC-reached event")
	}
}

// Fig. 1b: a secondary failure mid-MRM forces a switch to an easier
// MRC (rest stop -> shoulder).
func TestMidMRMSwitch(t *testing.T) {
	e, c, w := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(5000, 2))
	_ = c.Dispatch(p, 25)
	e.RunFor(2 * time.Second)
	// Snow exits the road ODD while capabilities are intact =>
	// the best MRC (rest stop) is selected.
	w.Weather = world.Weather{Condition: world.Snow, TemperatureC: -2}
	e.RunFor(2 * time.Second)
	if !c.MRMActive() || c.CurrentMRC().ID != "rest_stop" {
		t.Fatalf("MRM = %v active=%v, want rest_stop", c.CurrentMRC().ID, c.MRMActive())
	}
	// Propulsion dies mid-MRM: rest stop needs propulsion => switch.
	c.ApplyFault(fault.Fault{ID: "engine", Target: "truck1", Kind: fault.KindPropulsion,
		Severity: 1, Permanent: true})
	e.RunFor(2 * time.Second)
	if c.CurrentMRC().ID != "shoulder" {
		t.Fatalf("MRC after switch = %v, want shoulder", c.CurrentMRC().ID)
	}
	sw, ok := e.Env().Log.First(sim.EventMRMSwitched)
	if !ok || sw.Fields["from"] != "rest_stop" || sw.Fields["to"] != "shoulder" {
		t.Errorf("switch event = %+v", sw)
	}
	e.RunFor(5 * time.Minute)
	if !c.InMRC() {
		t.Fatalf("never reached MRC after switch, mode=%v pos=%v speed=%v",
			c.Mode(), c.Body().Position(), c.Body().Speed())
	}
	// Stopped on the shoulder, not in the lane.
	zones := w.ZoneAt(c.Body().Position())
	found := false
	for _, z := range zones {
		if z.Kind == world.ZoneShoulder {
			found = true
		}
	}
	if !found {
		t.Errorf("stopped at %v, not on shoulder", c.Body().Position())
	}
}

func TestBrakeLossHelpless(t *testing.T) {
	e, c, _ := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(600, 2))
	_ = c.Dispatch(p, 20)
	e.RunFor(5 * time.Second)
	c.ApplyFault(fault.Fault{ID: "brakes", Target: "truck1", Kind: fault.KindBrake,
		Severity: 1, Permanent: true})
	e.RunFor(time.Second)
	if !c.MRMActive() {
		t.Fatalf("mode = %v", c.Mode())
	}
	if c.CurrentMRC().ID != "helpless" {
		t.Errorf("MRC = %v, want helpless", c.CurrentMRC().ID)
	}
	// The vehicle coasts to the path end and finally stops there.
	e.RunFor(2 * time.Minute)
	if !c.InMRC() {
		t.Errorf("helpless vehicle should reach (poor) MRC at path end; mode=%v speed=%v",
			c.Mode(), c.Body().Speed())
	}
}

func TestRecovery(t *testing.T) {
	e, c, _ := newRig(t)
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(30 * time.Second)
	if !c.InMRC() {
		t.Fatalf("setup: mode = %v", c.Mode())
	}
	c.Recover(e.Env())
	if c.Mode() != ModeNominal || c.Goal() != "haul A->B" {
		t.Errorf("after recovery: mode %v goal %q", c.Mode(), c.Goal())
	}
	if c.Interventions() != 1 {
		t.Errorf("interventions = %d", c.Interventions())
	}
	if len(c.ActiveFaults()) != 0 {
		t.Error("recovery should repair faults")
	}
	e.RunFor(5 * time.Second)
	if c.Mode() != ModeNominal {
		t.Errorf("relapsed to %v", c.Mode())
	}
}

func TestDispatchRejectedInMRC(t *testing.T) {
	e, c, _ := newRig(t)
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(30 * time.Second)
	p := geom.MustPath(geom.V(0, 0), geom.V(10, 0))
	if err := c.Dispatch(p, 5); err == nil {
		t.Error("dispatch in MRC should fail")
	}
}

func TestSetUserGoal(t *testing.T) {
	e, c, _ := newRig(t)
	c.SetUserGoal("new mission")
	if c.Goal() != "new mission" || c.UserGoal() != "new mission" {
		t.Error("goal update failed")
	}
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(30 * time.Second)
	c.SetUserGoal("while stopped")
	if strings.HasPrefix(c.Goal(), "while") {
		t.Error("goal must stay mrc:* during MRC")
	}
	if c.UserGoal() != "while stopped" {
		t.Error("user goal should still record")
	}
}

func TestCommFaultTakesRadioDown(t *testing.T) {
	w := roadWorld()
	net := comm.NewNetwork(comm.NetConfig{}, sim.NewRNG(1))
	net.MustRegister("truck1")
	roadODD := odd.DefaultRoadSpec()
	c := MustConstituent(Config{ID: "truck1", World: w, Net: net, ODD: &roadODD,
		Hierarchy: DefaultRoadHierarchy()})
	c.ApplyFault(fault.Fault{ID: "radio", Target: "truck1", Kind: fault.KindComm,
		Severity: 1, At: 0, ClearAt: time.Minute})
	if c.CommUp() || !net.NodeDown("truck1") {
		t.Error("comm fault should take the radio down")
	}
	c.ClearFault(fault.Fault{ID: "radio"})
	if !c.CommUp() || net.NodeDown("truck1") {
		t.Error("clear should restore the radio")
	}
}

func TestOverlappingFaultsCompose(t *testing.T) {
	_, c, _ := newRig(t)
	f1 := fault.Fault{ID: "a", Target: "truck1", Kind: fault.KindSensor,
		Detail: "long_range_radar", Severity: 1}
	f2 := fault.Fault{ID: "b", Target: "truck1", Kind: fault.KindSensor,
		Detail: "camera", Severity: 1}
	c.ApplyFault(f1)
	c.ApplyFault(f2)
	// Only short_range (36m) left.
	if got := c.Capabilities().PerceptionRange; got != 36 {
		t.Errorf("range = %v, want 36", got)
	}
	c.ClearFault(f2)
	if got := c.Capabilities().PerceptionRange; got != 72 {
		t.Errorf("range after clearing camera = %v, want 72 (camera back)", got)
	}
	c.ClearFault(f1)
	if got := c.Capabilities().PerceptionRange; got != 120 {
		t.Errorf("range fully restored = %v", got)
	}
}

func TestToolAndLocalizationFaults(t *testing.T) {
	e, _, w := newRig(t)
	digger := MustConstituent(Config{ID: "digger1",
		Spec: vehicle.DefaultSpec(vehicle.KindDigger), World: w})
	e.MustRegister(digger)
	if !digger.ToolUp() {
		t.Fatal("digger tool should start up")
	}
	digger.ApplyFault(fault.Fault{ID: "arm", Target: "digger1", Kind: fault.KindTool, Severity: 1})
	if digger.ToolUp() {
		t.Error("tool fault ignored")
	}
	digger.ApplyFault(fault.Fault{ID: "gps", Target: "digger1", Kind: fault.KindLocalization, Severity: 1})
	e.RunFor(time.Second)
	if !digger.MRMActive() && !digger.InMRC() {
		t.Errorf("localization loss must force MRM, mode = %v", digger.Mode())
	}
}

func TestAssistSlowdownBoundsSpeed(t *testing.T) {
	e, c, _ := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(3000, 2))
	_ = c.Dispatch(p, 20)
	e.RunFor(15 * time.Second)
	if c.Body().Speed() < 15 {
		t.Fatalf("setup speed %v", c.Body().Speed())
	}
	c.AssistSlowdown(3)
	if !c.Assisting() {
		t.Error("Assisting should be true")
	}
	e.RunFor(15 * time.Second)
	if c.Body().Speed() > 3+1e-6 {
		t.Errorf("assist speed %v > 3", c.Body().Speed())
	}
	c.ReleaseAssist()
	e.RunFor(15 * time.Second)
	if c.Body().Speed() < 15 {
		t.Errorf("released speed %v, want back to ~20", c.Body().Speed())
	}
}

func TestCommandMRM(t *testing.T) {
	e, c, _ := newRig(t)
	c.CommandMRM(e.Env(), "TMS order")
	if !c.MRMActive() {
		t.Fatal("command ignored")
	}
	if !strings.Contains(c.MRMReason(), "commanded") {
		t.Errorf("reason = %q", c.MRMReason())
	}
	e.RunFor(5 * time.Minute)
	if !c.InMRC() {
		t.Errorf("mode = %v pos = %v", c.Mode(), c.Body().Position())
	}
}

func TestOnMRCCallback(t *testing.T) {
	e, c, _ := newRig(t)
	var gotMRC string
	var started string
	c.OnMRCReached = func(cc *Constituent, m MRC) { gotMRC = m.ID }
	c.OnMRMStarted = func(cc *Constituent, m MRC, reason string) { started = m.ID }
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(30 * time.Second)
	if gotMRC != "in_lane" || started != "in_lane" {
		t.Errorf("callbacks: started=%q reached=%q", started, gotMRC)
	}
}

// Fig. 1a: lower-level decisions are constrained by higher levels.
// (1) The tactical speed cap constrains the operational cruise;
// (2) the operational obstacle hold constrains motion below both;
// (3) a strategic-goal change (MRM/MRC) overrides everything.
func TestDecisionHierarchyLevels(t *testing.T) {
	e, c, _ := newRig(t)
	p := geom.MustPath(geom.V(100, 2), geom.V(5000, 2))
	if err := c.Dispatch(p, 25); err != nil {
		t.Fatal(err)
	}
	e.RunFor(25 * time.Second)
	if c.Body().Speed() < 20 {
		t.Fatalf("setup speed %v", c.Body().Speed())
	}

	// (1) tactical constrains operational: a permanent perception loss
	// caps the speed below the dispatched cruise.
	c.ApplyFault(fault.Fault{ID: "radar", Target: "truck1", Kind: fault.KindSensor,
		Detail: "long_range_radar", Severity: 1, Permanent: true})
	e.RunFor(15 * time.Second)
	if c.Mode() != ModeDegraded {
		t.Fatalf("mode = %v", c.Mode())
	}
	if c.Body().Speed() > c.SpeedCap()+1e-6 {
		t.Errorf("operational speed %v exceeds the tactical cap %v",
			c.Body().Speed(), c.SpeedCap())
	}

	// (2) operational constrains motion below the tactical cap.
	c.HoldForObstacle(true)
	e.RunFor(15 * time.Second)
	if !c.Body().Stopped() {
		t.Errorf("operational hold ignored, speed %v", c.Body().Speed())
	}
	c.HoldForObstacle(false)

	// (3) strategic overrides both: an MRM replaces the goal and the
	// lower levels follow the new mission.
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(time.Minute)
	if !c.InMRC() {
		t.Fatalf("mode = %v", c.Mode())
	}
	if c.Goal() == "haul A->B" {
		t.Error("the strategic goal must have changed to the MRC")
	}
}
