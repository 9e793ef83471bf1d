package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/traj"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// Mode is the top-level state of a constituent's ADS.
type Mode int

// ADS modes. Per Gyllenhammar et al. (adopted by the paper), an MRC
// is a change of strategic goal; degraded operation is not an MRC.
const (
	// ModeNominal: pursuing the user-defined strategic goal at full
	// capability.
	ModeNominal Mode = iota + 1
	// ModeDegraded: pursuing the strategic goal with tactically
	// adapted (reduced) performance. Definition 4 when permanent.
	ModeDegraded
	// ModeMRM: executing a minimal risk manoeuvre; the strategic
	// goal has been replaced by "reach MRC".
	ModeMRM
	// ModeMRC: stable stopped state reached; user intervention is
	// required to recover.
	ModeMRC
)

var modeNames = map[Mode]string{
	ModeNominal:  "nominal",
	ModeDegraded: "degraded",
	ModeMRM:      "mrm",
	ModeMRC:      "mrc",
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// AutoRecoveryPolicy decides whether the ADS may leave an MRC without
// user intervention. The paper's Definitions 1-2 require intervention
// (AutoRecoveryOff); its future work asks "whether a recovery from
// MRC can be safely handled without human intervention" —
// AutoRecoveryTransient implements and evaluates that proposal
// (experiment E15).
type AutoRecoveryPolicy int

// Auto-recovery policies.
const (
	// AutoRecoveryOff: recovery always needs user intervention (the
	// paper's definitions; the default).
	AutoRecoveryOff AutoRecoveryPolicy = iota
	// AutoRecoveryTransient: the ADS resumes the user-defined
	// strategic goal on its own when (a) no fault is active (the MRC
	// cause was a self-clearing condition such as weather), (b) the
	// current capabilities assess as operational, (c) the ODD is
	// comfortably inside (no near-exit), and (d) the vehicle has
	// dwelled in MRC for RecoveryDwell (hysteresis against flapping).
	AutoRecoveryTransient
)

// Config assembles a constituent.
type Config struct {
	ID    string
	Spec  vehicle.Spec
	Start geom.Pose
	// ODD defaults to the site spec.
	ODD *odd.Spec
	// Hierarchy defaults to the site hierarchy.
	Hierarchy *Hierarchy
	World     *world.World
	// Net, when set, has the constituent's radio taken down by comm
	// faults.
	Net *comm.Network
	// Goal is the initial user-defined strategic goal label.
	Goal string
	// Seed is the run seed the trajectory planner's private stream is
	// derived from (together with the constituent ID); 0 means 1. The
	// stream is private, so a constituent's MRM planning draws depend
	// only on its own planning events, never on what other entities
	// draw from the engine RNG.
	Seed int64
	// Obstacles, when set, supplies the other constituents' observed
	// states at planning time (a read-only snapshot of the tick's
	// pre-step state, so what the planner sees does not depend on
	// registration order). Nil plans against an empty world.
	Obstacles func() []traj.Obstacle
}

// Constituent is one automated vehicle or machine: body + perception
// (a standard sensor suite of the spec's range) + ODD monitor +
// degradation manager + MRM executor. It implements sim.Entity and
// fault.Handler.
type Constituent struct {
	id      string
	body    *vehicle.Body
	suite   *sensor.Suite
	monitor *odd.Monitor
	hier    *Hierarchy
	world   *world.World
	net     *comm.Network
	dm      *DegradationManager

	// ownHier records that Reinit built the hierarchy itself (the
	// Config left it nil). Only a self-built hierarchy may be reused on
	// the next Reinit — a caller-provided one is caller-owned.
	ownHier bool

	mode     Mode
	goal     string
	userGoal string

	activeFaults map[string]fault.Fault
	commUp       bool
	toolUp       bool
	locUp        bool

	speedCap  float64 // tactical speed bound (m/s)
	assistCap float64 // externally requested bound during concerted MRMs; <0 = none
	cruise    float64 // dispatched cruise speed for the current task
	holding   bool    // operational hold for an obstacle ahead
	// follower marks the constituent as a platoon follower whose
	// forward perception is extended by the leader: perception-based
	// assessment then uses the nominal range (Sec. III-B case iv).
	follower     bool
	currentMRC   MRC
	targetZone   world.Zone
	mrmReason    string
	mrmFeasible  bool // false when even the hierarchy had nothing feasible
	occupiedZone string

	// Trajectory planning state (positional MRMs execute a planned
	// candidate instead of a scripted cruise).
	planner   *traj.Planner
	obstacles func() []traj.Obstacle
	planned   traj.Candidate
	plannedOK bool
	planAt    time.Duration
	replans   int

	// Measured transition risk per manoeuvre (planned candidates and
	// scored scripted stops alike).
	lastRisk float64
	riskSum  float64
	riskMax  float64
	riskN    int

	interventions int
	autoRecovered int

	// AutoRecovery enables ADS-initiated recovery from transient
	// MRCs (default off, per the paper's definitions).
	AutoRecovery AutoRecoveryPolicy
	// RecoveryDwell is the minimum stable time in MRC before an
	// autonomous recovery may fire (default 10s when zero).
	RecoveryDwell time.Duration
	mrcSince      time.Duration
	conditionsOK  time.Duration // since when recovery conditions held

	// OnMRCReached, when set, is called once when the constituent
	// reaches its MRC (used by policies to propagate local/global
	// decisions).
	OnMRCReached func(c *Constituent, m MRC)
	// OnMRMStarted, when set, is called once per MRM trigger.
	OnMRMStarted func(c *Constituent, m MRC, reason string)
	// MRMGate, when set, is consulted before an internally assessed
	// MRM triggers. Returning false defers the MRM (the constituent
	// crawls while the policy coordinates, e.g. agreement-seeking
	// classes requesting a gap first); the gate is re-consulted every
	// tick until it allows or the policy triggers the MRM itself.
	MRMGate    func(c *Constituent, reason string) bool
	gatedSince time.Duration // -1 when not currently gated
}

// GateTimeout is the designed-in bound on how long an MRM may stay
// deferred by MRMGate: if the gate still refuses after this long, the
// MRM triggers anyway (reason suffixed "(gate timeout)"). This is the
// vehicle-level safety net under the coordinating policies — a policy
// that dies, partitions away, or mis-retries must not defer the
// manoeuvre forever. It is far above any healthy coordination round
// (the agreement-seeking class gives up after ~21s with default retry
// settings) so it only fires when the coordinating policy itself has
// failed.
const GateTimeout = 60 * time.Second

var (
	_ sim.Entity    = (*Constituent)(nil)
	_ fault.Handler = (*Constituent)(nil)
)

// NewConstituent builds a constituent from cfg. A missing ID is an
// error.
func NewConstituent(cfg Config) (*Constituent, error) {
	c := new(Constituent)
	if err := c.Reinit(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reinit re-initialises the constituent in place for a new run — the
// warm-rig path. Fresh construction routes through the same code
// (NewConstituent is Reinit on a zero struct), so a reinitialised
// constituent is identical to a fresh one by construction: the whole
// struct is reassigned as one composite literal (any field not listed
// is zeroed, so new fields can never leak across runs), and the
// per-run components — planner, body, sensor suite, ODD monitor, the
// self-built MRC hierarchy, degradation manager, fault map — are
// reinitialised in place rather than reallocated, each through the
// same assignment its fresh constructor runs.
func (c *Constituent) Reinit(cfg Config) error {
	if cfg.ID == "" {
		return fmt.Errorf("core: constituent with empty ID")
	}
	if cfg.Spec.Kind == 0 {
		cfg.Spec = vehicle.DefaultSpec(vehicle.KindTruck)
	}
	suite := c.suite
	if suite == nil {
		suite = sensor.StandardSuite(cfg.Spec.SensorRange)
	} else {
		suite.ReinitStandard(cfg.Spec.SensorRange)
	}
	oddSpec := odd.DefaultSiteSpec()
	if cfg.ODD != nil {
		oddSpec = *cfg.ODD
	}
	hier, ownHier := cfg.Hierarchy, false
	if hier == nil {
		ownHier = true
		if c.ownHier && c.hier != nil {
			// A hierarchy is immutable once built, so the previous
			// run's self-built default IS DefaultSiteHierarchy().
			hier = c.hier
		} else {
			hier = DefaultSiteHierarchy()
		}
	}
	if cfg.Goal == "" {
		cfg.Goal = "user_goal"
	}
	planner := c.planner
	if planner == nil {
		planner = traj.New(traj.Seed(cfg.Seed, cfg.ID))
	} else {
		planner.Reinit(traj.Seed(cfg.Seed, cfg.ID))
	}
	body := c.body
	if body == nil {
		body = vehicle.NewBody(cfg.Spec, cfg.Start)
	} else {
		body.Reinit(cfg.Spec, cfg.Start)
	}
	monitor := c.monitor
	if monitor == nil {
		monitor = odd.NewMonitor(oddSpec)
	} else {
		monitor.Reinit(oddSpec)
	}
	dm := c.dm
	if dm == nil {
		dm = NewDegradationManager(cfg.Spec)
	} else {
		dm.Reinit(cfg.Spec)
	}
	faults := c.activeFaults
	if faults == nil {
		faults = make(map[string]fault.Fault)
	} else {
		clear(faults)
	}
	*c = Constituent{
		id:           cfg.ID,
		body:         body,
		suite:        suite,
		monitor:      monitor,
		hier:         hier,
		world:        cfg.World,
		net:          cfg.Net,
		dm:           dm,
		ownHier:      ownHier,
		mode:         ModeNominal,
		goal:         cfg.Goal,
		userGoal:     cfg.Goal,
		activeFaults: faults,
		commUp:       true,
		toolUp:       cfg.Spec.HasTool,
		locUp:        true,
		speedCap:     cfg.Spec.MaxSpeed,
		assistCap:    -1,
		planner:      planner,
		obstacles:    cfg.Obstacles,
		gatedSince:   -1,
	}
	return nil
}

// MustConstituent is NewConstituent that panics on error.
func MustConstituent(cfg Config) *Constituent {
	c, err := NewConstituent(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ID implements sim.Entity.
func (c *Constituent) ID() string { return c.id }

// Body returns the kinematic body.
func (c *Constituent) Body() *vehicle.Body { return c.body }

// Suite returns the sensor suite.
func (c *Constituent) Suite() *sensor.Suite { return c.suite }

// Mode returns the current ADS mode.
func (c *Constituent) Mode() Mode { return c.mode }

// Goal returns the current strategic goal label. During an MRM/MRC it
// is "mrc:<id>", reflecting that an MRC is a change of strategic
// goal.
func (c *Constituent) Goal() string { return c.goal }

// UserGoal returns the original user-defined strategic goal.
func (c *Constituent) UserGoal() string { return c.userGoal }

// SetUserGoal updates the user-defined strategic goal (e.g. when a
// TMS re-tasks the constituent). Only honoured outside MRM/MRC.
func (c *Constituent) SetUserGoal(goal string) {
	c.userGoal = goal
	if c.mode == ModeNominal || c.mode == ModeDegraded {
		c.goal = goal
	}
}

// InMRC reports whether the constituent has reached an MRC.
func (c *Constituent) InMRC() bool { return c.mode == ModeMRC }

// MRMActive reports whether an MRM is executing.
func (c *Constituent) MRMActive() bool { return c.mode == ModeMRM }

// Operational reports whether the constituent still pursues its
// strategic goal (nominal or degraded).
func (c *Constituent) Operational() bool {
	return c.mode == ModeNominal || c.mode == ModeDegraded
}

// CurrentMRC returns the MRC being executed or reached (zero when
// nominal).
func (c *Constituent) CurrentMRC() MRC { return c.currentMRC }

// TargetZone returns the zone targeted by the current MRM (zero Zone
// for in-place stops or outside MRM/MRC).
func (c *Constituent) TargetZone() world.Zone { return c.targetZone }

// MRMReason returns the reason of the current/last MRM trigger.
func (c *Constituent) MRMReason() string { return c.mrmReason }

// SpeedCap returns the current tactical speed bound.
func (c *Constituent) SpeedCap() float64 { return c.speedCap }

// Interventions returns the number of user interventions (recoveries)
// performed on this constituent.
func (c *Constituent) Interventions() int { return c.interventions }

// CommUp reports whether the V2X radio currently works.
func (c *Constituent) CommUp() bool { return c.commUp }

// ToolUp reports whether the work tool currently works.
func (c *Constituent) ToolUp() bool { return c.toolUp }

// Capabilities computes the current capability vector from the body,
// suite and subsystem flags.
func (c *Constituent) Capabilities() vehicle.Capabilities {
	spec := c.body.Spec()
	return vehicle.Capabilities{
		PerceptionRange: c.suite.EffectiveRange(),
		MaxSpeed:        spec.MaxSpeed,
		// A hard stop tolerates more brake degradation than a
		// controlled (comfortable) one: between the two thresholds only
		// the emergency stop remains feasible, which is what lets the
		// Fig. 1b fallback chain hop from in-lane to emergency on a
		// severe (but not total) brake failure.
		ServiceBrake:   c.body.BrakeFactor() > 0.1,
		EmergencyBrake: c.body.BrakeFactor() > 0.05,
		Steering:       c.body.SteeringOK(),
		Propulsion:     c.body.PropulsionOK(),
		Comm:           c.commUp,
		Tool:           c.toolUp,
		Localization:   c.locUp,
	}
}

// HasPermanentFault reports whether any active fault is permanent.
func (c *Constituent) HasPermanentFault() bool {
	for _, f := range c.activeFaults {
		if f.Permanent {
			return true
		}
	}
	return false
}

// ActiveFaults returns the active faults sorted by ID.
func (c *Constituent) ActiveFaults() []fault.Fault {
	out := make([]fault.Fault, 0, len(c.activeFaults))
	for _, f := range c.activeFaults {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ApplyFault implements fault.Handler.
func (c *Constituent) ApplyFault(f fault.Fault) {
	c.activeFaults[f.ID] = f
	c.recomputeEffects()
}

// ClearFault implements fault.Handler.
func (c *Constituent) ClearFault(f fault.Fault) {
	delete(c.activeFaults, f.ID)
	c.recomputeEffects()
}

// recomputeEffects re-derives all physical effects from the active
// fault set, so overlapping faults of the same kind compose and clear
// correctly.
func (c *Constituent) recomputeEffects() {
	for _, n := range c.suite.Names() {
		_ = c.suite.Restore(n)
	}
	c.body.DegradeBrakes(1)
	c.body.UnlockSteering()
	c.body.EnablePropulsion()
	c.commUp = true
	c.toolUp = c.body.Spec().HasTool
	c.locUp = true

	ids := make([]string, 0, len(c.activeFaults))
	for id := range c.activeFaults {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	brake := 1.0
	for _, id := range ids {
		f := c.activeFaults[id]
		switch f.Kind {
		case fault.KindSensor:
			if f.Detail != "" {
				_ = c.suite.Degrade(f.Detail, 1-f.Severity)
			} else {
				for _, n := range c.suite.Names() {
					_ = c.suite.Degrade(n, 1-f.Severity)
				}
			}
		case fault.KindBrake:
			if v := 1 - f.Severity; v < brake {
				brake = v
			}
		case fault.KindSteering:
			c.body.LockSteering()
		case fault.KindPropulsion:
			c.body.DisablePropulsion()
		case fault.KindComm:
			c.commUp = false
		case fault.KindTool:
			c.toolUp = false
		case fault.KindLocalization:
			c.locUp = false
		}
	}
	c.body.DegradeBrakes(brake)
	if c.net != nil {
		c.net.SetNodeDown(c.id, !c.commUp)
	}
}

// Dispatch assigns a task path when operational. The effective speed
// is bounded by the tactical speed cap.
func (c *Constituent) Dispatch(p *geom.Path, speed float64) error {
	if !c.Operational() {
		return fmt.Errorf("core: %s not operational (mode %v)", c.id, c.mode)
	}
	c.cruise = geom.Clamp(speed, 0, c.body.Spec().MaxSpeed)
	return c.body.SetPath(p, geom.Clamp(speed, 0, c.speedCap))
}

// SetCruiseSpeed adjusts the cruise speed of the current task without
// replacing the path (platoon speed control uses this every tick).
func (c *Constituent) SetCruiseSpeed(v float64) {
	c.cruise = geom.Clamp(v, 0, c.body.Spec().MaxSpeed)
}

// SetPlatoonFollower marks (or unmarks) the constituent as a platoon
// follower. A follower's perception-based assessment uses the nominal
// sensor range — the leader's superior field of view covers it — so a
// front-sensor fault no longer degrades or stops a follower
// (Sec. III-B case iv). All other capability losses still apply.
func (c *Constituent) SetPlatoonFollower(follower bool) { c.follower = follower }

// PlatoonFollower reports whether follower mode is active.
func (c *Constituent) PlatoonFollower() bool { return c.follower }

// HoldForObstacle pauses (true) or resumes (false) motion for an
// obstacle ahead — the operational-level collision avoidance agents
// apply when another constituent blocks their corridor.
func (c *Constituent) HoldForObstacle(hold bool) { c.holding = hold }

// Holding reports whether an obstacle hold is active.
func (c *Constituent) Holding() bool { return c.holding }

// AssistSlowdown applies an external speed bound, used by concerted
// MRMs where neighbours slow down to open a gap.
func (c *Constituent) AssistSlowdown(speed float64) { c.assistCap = speed }

// ReleaseAssist removes the external speed bound.
func (c *Constituent) ReleaseAssist() { c.assistCap = -1 }

// Assisting reports whether an external assist bound is active.
func (c *Constituent) Assisting() bool { return c.assistCap >= 0 }

// Step implements sim.Entity: perception update, the ADS mode machine
// with the ODD evaluated where a mode reads it, then kinematics.
func (c *Constituent) Step(env *sim.Env) {
	if c.world != nil {
		c.suite.SetWeatherFactor(c.world.Weather.PerceptionFactor())
	}
	caps := c.Capabilities()
	assessCaps := caps
	if c.follower {
		// The leader's field of view extends the follower's.
		assessCaps.PerceptionRange = c.body.Spec().SensorRange
	}

	switch c.mode {
	case ModeNominal, ModeDegraded:
		c.stepOperational(env, assessCaps, c.evaluateODD(assessCaps))
	case ModeMRM:
		c.stepMRM(env, caps)
	case ModeMRC:
		// Stable stopped state; by default nothing happens until user
		// intervention. The future-work extension may recover from
		// transient causes autonomously.
		if c.AutoRecovery == AutoRecoveryTransient {
			c.stepAutoRecovery(env, assessCaps, c.evaluateODD(assessCaps))
		}
	}

	// Enforce tactical and assist speed bounds. While operational the
	// cruise speed re-applies each tick so released bounds restore the
	// dispatched speed; during MRM the executor's own speed holds.
	bound := c.speedCap
	if c.assistCap >= 0 && c.assistCap < bound {
		bound = c.assistCap
	}
	if c.holding && c.Operational() {
		bound = 0
	}
	if c.Operational() && !c.body.Idle() && !c.body.Stopping() {
		c.body.SetTargetSpeed(geom.Clamp(c.cruise, 0, bound))
	} else if c.body.TargetSpeed() > bound {
		c.body.SetTargetSpeed(bound)
	}
	c.body.Step(env.Clock.StepSeconds())
}

// evaluateODD checks the current weather, position and caps against
// the ODD; without a world the constituent is always inside it. The
// evaluation is pure, so Step calls it only in the modes that read it:
// an MRM runs on capabilities alone, and an MRC without transient
// auto-recovery waits for user intervention whatever the ODD says.
func (c *Constituent) evaluateODD(caps vehicle.Capabilities) odd.Status {
	if c.world == nil {
		return odd.Status{Inside: true}
	}
	return c.monitor.Evaluate(odd.Input{
		Weather:  c.world.Weather,
		Position: c.body.Position(),
		Caps:     caps,
	})
}

func (c *Constituent) stepOperational(env *sim.Env, caps vehicle.Capabilities, oddStatus odd.Status) {
	assessment := c.dm.Assess(caps, oddStatus, c.HasPermanentFault())
	switch assessment.Kind {
	case AssessRequireMRM:
		if c.MRMGate != nil && !c.MRMGate(c, assessment.Reason) {
			now := env.Clock.Now()
			if c.gatedSince < 0 {
				c.gatedSince = now
			}
			if now-c.gatedSince >= GateTimeout {
				// Designed-in watchdog: the coordinating policy has
				// deferred the MRM for too long — trigger anyway.
				c.gatedSince = -1
				c.TriggerMRM(env, assessment.Reason+" (gate timeout)")
				return
			}
			// Deferred by the policy: crawl while it coordinates.
			if c.speedCap > 2 {
				c.speedCap = 2
			}
			return
		}
		c.gatedSince = -1
		c.TriggerMRM(env, assessment.Reason)
	case AssessDegradedTemporary, AssessDegradedPermanent:
		if c.mode != ModeDegraded {
			c.mode = ModeDegraded
			env.EmitFields(sim.EventDegraded, c.id, assessment.Reason,
				map[string]string{"kind": assessment.Kind.String()})
		}
		c.speedCap = assessment.SpeedCap
	case AssessNominal:
		if c.mode == ModeDegraded {
			c.mode = ModeNominal
			env.Emit(sim.EventDegradCleared, c.id, "capabilities restored")
		}
		c.speedCap = c.body.Spec().MaxSpeed
	}
}

func (c *Constituent) stepMRM(env *sim.Env, caps vehicle.Capabilities) {
	// Mid-MRM feasibility check: a new failure may force a switch to
	// an easier MRC (Fig. 1b).
	if c.mrmFeasible {
		if _, ok := c.currentMRC.Feasible(caps, c.body.Position(), c.world); !ok {
			c.fallbackMRM(env)
		} else if c.plannedOK {
			c.stepPlanned(env)
		}
	}
	if c.mrcReached() {
		c.mode = ModeMRC
		c.mrcSince = env.Clock.Now()
		c.conditionsOK = -1
		if c.world != nil && c.targetZone.ID != "" {
			c.world.RegisterStop(c.targetZone.ID)
			c.occupiedZone = c.targetZone.ID
		}
		c.goal = "mrc:" + c.currentMRC.ID
		env.EmitFields(sim.EventMRCReached, c.id, "reached MRC "+c.currentMRC.ID,
			map[string]string{"mrc": c.currentMRC.ID, "reason": c.mrmReason,
				"risk": fmt.Sprintf("%.2f", c.effectiveStopRisk())})
		if c.OnMRCReached != nil {
			c.OnMRCReached(c, c.currentMRC)
		}
	}
}

func (c *Constituent) mrcReached() bool {
	if !c.body.Stopped() {
		return false
	}
	if !c.mrmFeasible {
		return true // helpless hard stop: wherever we ended is the MRC
	}
	switch c.currentMRC.Stop {
	case StopEmergency, StopInPlace:
		return true
	default:
		return c.targetZone.ID == "" || c.targetZone.Contains(c.body.Position()) || c.body.Arrived()
	}
}

// effectiveStopRisk returns the world's residual risk at the stopped
// position (falling back to the MRC's nominal risk without a world).
func (c *Constituent) effectiveStopRisk() float64 {
	if c.world == nil {
		return c.currentMRC.Risk
	}
	return c.world.StopRiskAt(c.body.Position())
}

// TriggerMRM starts (or restarts) an MRM: it selects the best
// feasible MRC from the hierarchy and begins executing the manoeuvre.
// Triggering while already in MRM/MRC is a no-op.
func (c *Constituent) TriggerMRM(env *sim.Env, reason string) {
	if c.mode == ModeMRM || c.mode == ModeMRC {
		return
	}
	caps := c.Capabilities()
	m, zone, ok := c.hier.Select(caps, c.body.Position(), c.world)
	c.mode = ModeMRM
	c.mrmReason = reason
	c.goal = "mrc:pending"
	if !ok {
		// Nothing feasible on our own (e.g. total brake loss): best
		// effort hard stop; concerted or prescriptive help must cover
		// the rest.
		c.mrmFeasible = false
		c.plannedOK = false
		c.currentMRC = MRC{ID: "helpless", Stop: StopEmergency, Risk: 1}
		c.body.EmergencyStop()
		c.recordManoeuvre(c.measureStopRisk(c.currentMRC, true))
		env.EmitFields(sim.EventMRMStarted, c.id, "no feasible MRC: best-effort stop ("+reason+")",
			map[string]string{"mrc": "helpless", "reason": reason,
				"transition_risk": fmt.Sprintf("%.3f", c.lastRisk)})
		return
	}
	c.startSelected(env, reason, m, zone, nil)
}

// CommandMRM lets an external entity (directing vehicle, TMS, road
// authority) force this constituent into an MRM. Prescriptive and
// orchestrated classes use this.
func (c *Constituent) CommandMRM(env *sim.Env, reason string) {
	c.TriggerMRM(env, "commanded: "+reason)
}

// TriggerMRMTo starts an MRM into the specific MRC of the hierarchy
// (e.g. a commanded pocket stop or a negotiated evacuation). When the
// named MRC is unknown or infeasible the constituent falls back to
// ordinary hierarchy selection — per Table I, a vehicle unable to
// comply with an instruction goes to its own MRC instead.
func (c *Constituent) TriggerMRMTo(env *sim.Env, mrcID, reason string) {
	if c.mode == ModeMRM || c.mode == ModeMRC {
		return
	}
	m, ok := c.hier.ByID(mrcID)
	if !ok {
		c.TriggerMRM(env, reason+" (unknown MRC "+mrcID+")")
		return
	}
	caps := c.Capabilities()
	zone, feasible := m.Feasible(caps, c.body.Position(), c.world)
	if !feasible {
		c.TriggerMRM(env, reason+" (cannot comply with "+mrcID+")")
		return
	}
	c.mode = ModeMRM
	c.mrmReason = reason
	c.startSelected(env, reason, m, zone, nil)
}

// TriggerMRMPlanned starts an MRM into the given (pre-selected) MRC
// executing a jointly selected candidate trajectory — concerted
// episodes pick the fleet-optimal combination before triggering. When
// the candidate's path is refused (steering died since selection) the
// constituent falls back to ordinary planning and then down the
// hierarchy.
func (c *Constituent) TriggerMRMPlanned(env *sim.Env, reason string, m MRC, zone world.Zone, cand traj.Candidate) {
	if c.mode == ModeMRM || c.mode == ModeMRC {
		return
	}
	c.mode = ModeMRM
	c.mrmReason = reason
	c.startSelected(env, reason, m, zone, &cand)
}

// startSelected commits to the selected MRC and starts the manoeuvre:
// execute (a pre-selected joint candidate when given, else plan), emit
// the started event with the measured transition risk, and walk the
// fallback chain when the manoeuvre cannot start.
func (c *Constituent) startSelected(env *sim.Env, reason string, m MRC, zone world.Zone, pre *traj.Candidate) {
	c.mrmFeasible = true
	c.currentMRC = m
	c.targetZone = zone
	c.goal = "mrc:" + m.ID
	started := false
	if pre != nil && (m.Stop == StopContinueToSafe || m.Stop == StopAdjacent) {
		if err := c.body.SetPath(pre.Path, pre.Cruise); err == nil {
			c.planned = *pre
			c.plannedOK = true
			c.planAt = env.Clock.Now()
			c.recordManoeuvre(pre.Risk)
			started = true
		}
	}
	if !started {
		started = c.executeMRM(env, m, zone)
	}
	fields := map[string]string{"mrc": m.ID, "reason": reason}
	if started {
		fields["transition_risk"] = fmt.Sprintf("%.3f", c.lastRisk)
	}
	env.EmitFields(sim.EventMRMStarted, c.id, "MRM to "+m.ID+" ("+reason+")", fields)
	if !started {
		// No candidate under the risk ceiling (or steering refused the
		// path): fall back down the hierarchy through the normal
		// switch path, one emitted event per hop.
		c.fallbackMRM(env)
	}
	if c.OnMRMStarted != nil {
		// Fired after planning so listeners can read the MRM path
		// (e.g. intent-sharing announces the planned stop point).
		c.OnMRMStarted(c, c.currentMRC, reason)
	}
}

// executeMRM begins the manoeuvre into m. For positional MRCs it plans
// and executes a sampled trajectory; in-place and emergency stops are
// scripted but still get a measured transition risk (ScoreStop). The
// return is false when the manoeuvre could not start — no candidate
// under the planner's risk ceiling, or the body refused the path — and
// the caller must continue down the fallback chain.
func (c *Constituent) executeMRM(env *sim.Env, m MRC, zone world.Zone) bool {
	c.plannedOK = false
	switch m.Stop {
	case StopEmergency:
		c.body.EmergencyStop()
		c.recordManoeuvre(c.measureStopRisk(m, true))
	case StopInPlace:
		c.body.CommandStop()
		c.recordManoeuvre(c.measureStopRisk(m, false))
	default:
		route := c.planRoute(c.body.Position(), zone)
		cand, ok := c.planner.Plan(c.planRequest(m, zone, route))
		if !ok {
			return false
		}
		if err := c.body.SetPath(cand.Path, cand.Cruise); err != nil {
			// Steering died between selection and execution.
			return false
		}
		c.planned = cand
		c.plannedOK = true
		c.planAt = env.Clock.Now()
		c.recordManoeuvre(cand.Risk)
	}
	return true
}

// fallbackMRM walks the hierarchy downward from the current MRC until
// a manoeuvre starts (Fig. 1b), emitting one EventMRMSwitched per
// successful hop. When nothing below is feasible the constituent
// hard-stops where it is.
func (c *Constituent) fallbackMRM(env *sim.Env) {
	caps := c.Capabilities()
	for {
		next, zone, ok := c.hier.SelectBelow(c.currentMRC, caps, c.body.Position(), c.world)
		if !ok {
			env.Emit(sim.EventMRMSwitched, c.id, "no feasible MRC remains; hard stop")
			c.mrmFeasible = false
			c.plannedOK = false
			c.targetZone = world.Zone{}
			c.body.EmergencyStop()
			c.recordManoeuvre(c.measureStopRisk(MRC{Risk: 1}, true))
			return
		}
		from := c.currentMRC.ID
		c.currentMRC = next
		c.targetZone = zone
		if c.executeMRM(env, next, zone) {
			c.goal = "mrc:" + next.ID
			env.EmitFields(sim.EventMRMSwitched, c.id,
				fmt.Sprintf("MRM %s infeasible, switching to %s", from, next.ID),
				map[string]string{"from": from, "to": next.ID,
					"transition_risk": fmt.Sprintf("%.3f", c.lastRisk)})
			return
		}
		// Planning below the ceiling failed for this hop too: keep
		// descending (SelectBelow now continues from next.Risk).
	}
}

// stepPlanned drives the active planned trajectory: the per-tick speed
// schedule realises the candidate's deceleration profile (the body
// itself knows only one target speed), and every ReplanEvery the
// remaining trajectory is re-scored against fresh obstacles — genuine
// mid-MRM replanning when it has gone stale. The check draws no
// randomness; only a genuine replan does.
func (c *Constituent) stepPlanned(env *sim.Env) {
	// v(s) = min(cruise, sqrt(2·a·s_rem)): decelerate along the
	// candidate's approach profile toward the stop point.
	rem := c.body.RemainingPath()
	sched := math.Sqrt(2 * c.planned.Decel * math.Max(rem, 0))
	if sched > c.planned.Cruise {
		sched = c.planned.Cruise
	}
	if !c.body.Stopping() && !c.body.Idle() {
		c.body.SetTargetSpeed(sched)
	}

	now := env.Clock.Now()
	if now-c.planAt < ReplanEvery {
		return
	}
	c.planAt = now
	done, _ := c.body.PathProgress()
	fresh := c.planner.ScoreRemaining(c.planRequest(c.currentMRC, c.targetZone, nil), c.planned, done)
	if fresh.Risk <= traj.RiskCeiling {
		return
	}
	// The in-flight trajectory has gone stale (obstacles moved into
	// it): re-sample from the current state.
	c.replans++
	route := c.planRoute(c.body.Position(), c.targetZone)
	cand, ok := c.planner.Plan(c.planRequest(c.currentMRC, c.targetZone, route))
	if ok {
		if err := c.body.SetPath(cand.Path, cand.Cruise); err == nil {
			c.planned = cand
			c.plannedOK = true
			c.recordManoeuvre(cand.Risk)
			env.EmitFields(sim.EventMRMReplanned, c.id,
				fmt.Sprintf("replanned %s trajectory (stale risk %.3f)", c.currentMRC.ID, fresh.Risk),
				map[string]string{"mrc": c.currentMRC.ID,
					"stale_risk":      fmt.Sprintf("%.3f", fresh.Risk),
					"transition_risk": fmt.Sprintf("%.3f", cand.Risk)})
			return
		}
	}
	// No candidate under the ceiling from here: fall back down the
	// hierarchy.
	c.fallbackMRM(env)
}

// planRequest assembles the planning problem for the current state.
// Obstacle states come from the rig-provided snapshot closure — never
// from live bodies, some of which have already stepped this tick.
func (c *Constituent) planRequest(m MRC, zone world.Zone, route *geom.Path) traj.Request {
	spec := c.body.Spec()
	cap := c.speedCap
	if c.assistCap >= 0 && c.assistCap < cap {
		cap = c.assistCap
	}
	req := traj.Request{
		ID:           c.id,
		Route:        route,
		Pose:         c.body.Pose(),
		Speed:        c.body.Speed(),
		SpeedCap:     cap,
		Spec:         spec,
		BrakeFactor:  c.body.BrakeFactor(),
		Radius:       0.5 * math.Hypot(spec.Length, spec.Width),
		World:        c.world,
		Zone:         zone,
		FallbackRisk: m.Risk,
	}
	if c.obstacles != nil {
		req.Obstacles = c.obstacles()
	}
	return req
}

// measureStopRisk scores the scripted stop the constituent is about to
// perform, so in-place/emergency manoeuvres report a measured
// transition risk rather than the MRC's nominal figure.
func (c *Constituent) measureStopRisk(m MRC, emergency bool) float64 {
	spec := c.body.Spec()
	decel := spec.ServiceDecel
	if emergency {
		decel = spec.EmergencyDecel
	}
	return c.planner.ScoreStop(c.planRequest(m, world.Zone{}, nil), decel*c.body.BrakeFactor()).Risk
}

func (c *Constituent) recordManoeuvre(risk float64) {
	c.lastRisk = risk
	c.riskSum += risk
	if c.riskN == 0 || risk > c.riskMax {
		c.riskMax = risk
	}
	c.riskN++
}

// TransitionRisk returns the measured transition risk accumulated over
// the manoeuvres this constituent performed: the sum and maximum of
// the per-manoeuvre risks, and the manoeuvre count.
func (c *Constituent) TransitionRisk() (sum, max float64, n int) {
	return c.riskSum, c.riskMax, c.riskN
}

// Replans returns the number of genuine mid-MRM replanning events.
func (c *Constituent) Replans() int { return c.replans }

// Planner exposes the constituent's trajectory planner (concerted
// episodes use it for joint selection).
func (c *Constituent) Planner() *traj.Planner { return c.planner }

// MRMCandidates returns the scored candidate set for an MRM into the
// currently best feasible MRC, for joint (concerted) selection. The
// boolean is false when the best feasible MRC is not positional (or
// nothing is feasible) — the episode then falls back to an ordinary
// trigger.
func (c *Constituent) MRMCandidates() (MRC, world.Zone, []traj.Candidate, bool) {
	caps := c.Capabilities()
	m, zone, ok := c.hier.Select(caps, c.body.Position(), c.world)
	if !ok || (m.Stop != StopContinueToSafe && m.Stop != StopAdjacent) {
		return m, zone, nil, false
	}
	route := c.planRoute(c.body.Position(), zone)
	cands := c.planner.Candidates(c.planRequest(m, zone, route))
	return m, zone, cands, len(cands) > 0
}

// HoldCandidates returns scored assist profiles (continue along the
// current path at each hold speed) for concerted helper selection.
func (c *Constituent) HoldCandidates(speeds []float64) []traj.Candidate {
	var route *geom.Path
	if p := c.body.Path(); p != nil {
		done, _ := c.body.PathProgress()
		if sub, err := p.SubPath(done, p.Len()); err == nil {
			route = sub
		}
	}
	return c.planner.HoldCandidates(c.planRequest(MRC{}, world.Zone{}, route), speeds)
}

// ReplanEvery is the cadence of the mid-MRM staleness check on an
// active planned trajectory.
const ReplanEvery = 5 * time.Second

// mrmStopPoint picks the stopped position inside the target zone: a
// point a comfortable manoeuvre distance ahead of the vehicle,
// clamped into the zone. For elongated zones (a continuous shoulder)
// this stops nearby rather than at the distant centroid; for compact
// zones it degenerates to (near) the centre.
func (c *Constituent) mrmStopPoint(zone world.Zone) geom.Vec2 {
	lookahead := 2*c.body.StoppingDistance() + 60
	ahead := c.body.Position().Add(c.body.Pose().Forward().Scale(lookahead))
	const margin = 1.5
	return geom.Vec2{
		X: geom.Clamp(ahead.X, zone.Area.Min.X+margin, zone.Area.Max.X-margin),
		Y: geom.Clamp(ahead.Y, zone.Area.Min.Y+margin, zone.Area.Max.Y-margin),
	}
}

// planRoute builds the MRM path: via the world's route graph when one
// exists (nearest node to nearest node), otherwise a straight line.
func (c *Constituent) planRoute(from geom.Vec2, zone world.Zone) *geom.Path {
	dest := c.mrmStopPoint(zone)
	if c.world != nil {
		g := c.world.Graph()
		if start, ok := g.NearestNode(from); ok {
			if end, ok2 := g.NearestNode(dest); ok2 && start != end {
				if route, err := g.PathBetween(start, end); err == nil {
					pts := append([]geom.Vec2{from}, route.Points()...)
					pts = append(pts, dest)
					if p, err := geom.NewPath(pts...); err == nil {
						return p.SetName("mrm:" + zone.ID)
					}
				}
			}
		}
	}
	return geom.MustPath(from, dest).SetName("mrm:" + zone.ID)
}

// AutoRecovered returns how many autonomous (no-intervention)
// recoveries this constituent performed.
func (c *Constituent) AutoRecovered() int { return c.autoRecovered }

// stepAutoRecovery checks the AutoRecoveryTransient conditions each
// tick while in MRC and resumes the user-defined strategic goal once
// they have held for RecoveryDwell.
func (c *Constituent) stepAutoRecovery(env *sim.Env, caps vehicle.Capabilities, oddStatus odd.Status) {
	dwell := c.RecoveryDwell
	if dwell <= 0 {
		dwell = 10 * time.Second
	}
	ok := len(c.activeFaults) == 0 &&
		oddStatus.Inside && !oddStatus.NearExit &&
		c.dm.Assess(caps, oddStatus, false).Kind != AssessRequireMRM
	now := env.Clock.Now()
	if !ok {
		c.conditionsOK = -1
		return
	}
	if c.conditionsOK < 0 {
		c.conditionsOK = now
	}
	if now-c.conditionsOK < dwell || now-c.mrcSince < dwell {
		return
	}
	c.autoRecovered++
	c.returnToNominal()
	env.Emit(sim.EventRecovered, c.id, "autonomous recovery: transient cause cleared (no intervention)")
}

// returnToNominal leaves the MRC: the refuge slot is freed and the
// constituent resumes its user-defined strategic goal at full
// capability with no manoeuvre, target or path left over.
func (c *Constituent) returnToNominal() {
	c.releaseZone()
	c.mode = ModeNominal
	c.goal = c.userGoal
	c.speedCap = c.body.Spec().MaxSpeed
	c.assistCap = -1
	c.mrmFeasible = false
	c.plannedOK = false
	c.currentMRC = MRC{}
	c.targetZone = world.Zone{}
	c.body.ClearPath()
}

// releaseZone frees the occupied refuge slot, if any.
func (c *Constituent) releaseZone() {
	if c.world != nil && c.occupiedZone != "" {
		c.world.ReleaseStop(c.occupiedZone)
	}
	c.occupiedZone = ""
}

// Recover models user intervention: active permanent faults are
// repaired, the constituent returns to nominal mode and its original
// strategic goal. Per Definitions 1 and 2 recovery from MRC always
// needs intervention, so this also counts an intervention.
func (c *Constituent) Recover(env *sim.Env) {
	c.interventions++
	c.activeFaults = make(map[string]fault.Fault)
	c.recomputeEffects()
	c.returnToNominal()
	env.Emit(sim.EventIntervention, c.id, "user recovery")
	env.Emit(sim.EventRecovered, c.id, "recovered to nominal")
}
