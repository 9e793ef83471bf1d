// Package metrics collects the per-run measurements the experiments
// report: productivity (task units over time), safety (collisions,
// near misses, minimum separation, time stopped in active lanes),
// availability (time per ADS mode), and intervention counts.
//
// The collector observes constituents through lightweight probes so
// the package stays decoupled from the ADS layer.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

// Probe exposes the observable state of one constituent.
type Probe struct {
	ID string
	// Footprint returns the current collision footprint.
	Footprint func() geom.OrientedBox
	// Mode returns the current ADS mode label ("nominal", "mrc", ...).
	Mode func() string
	// InActiveLane reports whether the constituent currently occupies
	// space that others need (used for stopped-in-lane exposure).
	InActiveLane func() bool
	// Stopped reports whether the constituent is stationary. When set
	// (together with Mode), proximity events are only counted for
	// risk-relevant pairs: at least one member in MRM/MRC, or stopped
	// inside active space. This filters out the artefacts of the 1-D
	// road abstraction (nominal traffic "passing through" itself and
	// vehicles sharing a multi-bay service point). A nil Stopped makes
	// every pair involving this probe risk-relevant.
	Stopped func() bool
	// StopRisk returns the residual risk of the constituent's current
	// position. While the constituent sits in MRC this accumulates as
	// risk exposure — the "rate of resolving the MRC" factor of the
	// adopted MRC definition: an unresolved MRC keeps contributing
	// risk.
	StopRisk func() float64
	// TransitionRisk returns the cumulative measured transition risk of
	// the manoeuvres this constituent performed: the per-manoeuvre sum,
	// the maximum, and the manoeuvre count. Nil when the constituent
	// does not quantify its manoeuvres.
	TransitionRisk func() (sum, max float64, n int)
	// Interventions returns the constituent's cumulative user
	// interventions (recoveries), read at report time. Nil counts none.
	Interventions func() int
}

// riskRelevant reports whether the probe currently contributes
// transition risk, given its already-sampled mode.
func riskRelevant(p Probe, mode string) bool {
	if p.Stopped == nil {
		return true
	}
	if mode == "mrm" || mode == "mrc" {
		return true
	}
	return p.Stopped() && p.InActiveLane != nil && p.InActiveLane()
}

// ContactEpsilon is the footprint distance at or below which two
// constituents count as in contact. Touching boxes resolve to an
// exact zero through the separating-axis test, but footprints built
// from trigonometric poses can land a hair apart; comparing against
// an epsilon instead of `== 0` keeps the touching-boxes boundary
// stable against float jitter without ever promoting a real gap
// (≥ millimetres) to a collision.
const ContactEpsilon = 1e-9

// Collector accumulates measurements over a run. Register it as a
// post-step hook.
type Collector struct {
	probes []Probe

	// NearMissDist is the separation below which a near miss is
	// counted (edge-triggered per pair). It is also the broad-phase
	// radius: separations beyond it are not safety-meaningful, so
	// Report clamps MinSeparation to it (see Report.MinSeparation).
	NearMissDist float64

	// UseBruteForce disables the uniform-grid broad-phase and scores
	// every pair exactly as the pre-index collector did — the oracle
	// arm of the differential tests and the baseline of the proximity
	// benchmarks. Reports are identical either way.
	UseBruteForce bool

	taskUnits    float64
	riskExposure float64
	collisions   int
	nearMisses   int
	minSep       float64
	sepSeen      bool
	pairSeen     bool
	// Per probe, by probe index: time per mode, in first-seen order,
	// and time stopped in active space.
	modeTime    [][]modeSpan
	stoppedLane []time.Duration
	// Latches, keyed by the probe-index pair (i, j) with i < j.
	inContact map[[2]int]bool
	inNear    map[[2]int]bool
	duration  time.Duration

	// Per-tick scratch state, reused across samples: the footprint
	// cache (each probe's Footprint() runs exactly once per tick), the
	// cached risk relevance, and the broad-phase grid and its pair
	// buffer, which also tells latch maintenance which pairs the
	// broad phase scored this tick.
	boxes    []geom.OrientedBox
	halfDiag []float64
	relevant []bool
	grid     *geom.Grid
	pairBuf  [][2]int
}

// modeSpan is the time one probe spent in one mode.
type modeSpan struct {
	mode string
	d    time.Duration
}

// NewCollector returns a collector over the given probes.
func NewCollector(probes ...Probe) *Collector {
	c := &Collector{
		probes:       probes,
		NearMissDist: 1.0,
		modeTime:     make([][]modeSpan, len(probes)),
		stoppedLane:  make([]time.Duration, len(probes)),
		inContact:    make(map[[2]int]bool),
		inNear:       make(map[[2]int]bool),
		boxes:        make([]geom.OrientedBox, len(probes)),
		halfDiag:     make([]float64, len(probes)),
		relevant:     make([]bool, len(probes)),
	}
	return c
}

// Reinit resets the collector in place to NewCollector over its
// current probes — the warm-rig path reuses the collector, its probe
// closures, and its latch and scratch storage across runs instead of
// reallocating them per seed. The caller owns the precondition that
// the probes still describe the new run's fleet (they do when the rig
// re-adopts its constituent and body allocations in place; the rig
// assembly checks fleet identity before reusing). Behaviour after Reinit is
// identical to a fresh collector's: every accumulator and latch is
// cleared, and the per-tick scratch (footprint cache, relevance,
// grid, pair buffer) is overwritten before it is read each Sample.
func (c *Collector) Reinit() {
	c.NearMissDist = 1.0
	c.UseBruteForce = false
	c.taskUnits = 0
	c.riskExposure = 0
	c.collisions = 0
	c.nearMisses = 0
	c.minSep = 0
	c.sepSeen = false
	c.pairSeen = false
	for i := range c.modeTime {
		c.modeTime[i] = c.modeTime[i][:0]
	}
	clear(c.stoppedLane)
	clear(c.inContact)
	clear(c.inNear)
	c.duration = 0
}

// ProbeIDs appends the collector's probe IDs, in probe order, to dst
// — the rig assembly uses it to check that a parked collector's fleet
// matches before reusing it.
func (c *Collector) ProbeIDs(dst []string) []string {
	for _, p := range c.probes {
		dst = append(dst, p.ID)
	}
	return dst
}

// AddTaskUnits records completed productive work (loads delivered,
// containers stacked, metres of goal progress — scenario-defined).
func (c *Collector) AddTaskUnits(units float64) { c.taskUnits += units }

// TaskUnits returns the accumulated productive work.
func (c *Collector) TaskUnits() float64 { return c.taskUnits }

// Hook returns the per-tick sampling hook.
func (c *Collector) Hook() sim.Hook {
	return func(env *sim.Env) { c.Sample(env) }
}

// Sample takes one measurement tick.
func (c *Collector) Sample(env *sim.Env) {
	dt := env.Clock.Step()
	c.duration += dt
	anyRelevant := false
	for i, p := range c.probes {
		mode := p.Mode()
		c.addModeTime(i, mode, dt)
		if (mode == "mrc" || mode == "mrm") && p.InActiveLane != nil && p.InActiveLane() {
			c.stoppedLane[i] += dt
		}
		if mode == "mrc" && p.StopRisk != nil {
			c.riskExposure += p.StopRisk() * dt.Seconds()
		}
		c.relevant[i] = riskRelevant(p, mode)
		anyRelevant = anyRelevant || c.relevant[i]
	}
	if len(c.probes) < 2 {
		return
	}
	if !anyRelevant {
		// No probe is risk-relevant this tick: every pair would be
		// rejected by the narrow phase and no latch can be released
		// (release requires a relevant member), so the whole proximity
		// pass — footprint sampling included — is skipped.
		return
	}
	// At least one probe is risk-relevant, so at least one pair would
	// be scored — the run has observed a separation floor even if the
	// broad-phase finds no candidates in range.
	c.pairSeen = true
	// Footprint cache: each probe's Footprint() closure runs at most
	// once per tick, whatever the pair count.
	for i, p := range c.probes {
		c.boxes[i] = p.Footprint()
		c.halfDiag[i] = 0.5 * math.Hypot(c.boxes[i].Length, c.boxes[i].Width)
	}
	if c.UseBruteForce {
		c.sampleBrute(env)
	} else {
		c.sampleIndexed(env)
	}
}

// sampleBrute scores every pair — the O(n²) oracle path.
func (c *Collector) sampleBrute(env *sim.Env) {
	for i := 0; i < len(c.probes); i++ {
		for j := i + 1; j < len(c.probes); j++ {
			c.scorePair(env, i, j)
		}
	}
}

// sampleIndexed scores only broad-phase candidate pairs. Cell size is
// the largest footprint extent (diagonal) plus NearMissDist, so any
// pair whose footprint gap could be below NearMissDist is guaranteed
// to be a candidate; skipped pairs are provably separated by more
// than NearMissDist, which is exactly the regime where the brute
// force pass would reset their contact/near latches and where
// MinSeparation is clamped anyway (see Report.MinSeparation).
func (c *Collector) sampleIndexed(env *sim.Env) {
	maxDiag := 0.0
	for _, hd := range c.halfDiag {
		if 2*hd > maxDiag {
			maxDiag = 2 * hd
		}
	}
	cell := maxDiag + c.NearMissDist
	if c.grid == nil {
		c.grid = geom.NewGrid(cell)
	} else {
		c.grid.Reset(cell)
	}
	for i := range c.boxes {
		c.grid.Insert(c.boxes[i].Center)
	}
	c.pairBuf = c.grid.CandidatePairs(c.pairBuf[:0])
	for _, pr := range c.pairBuf {
		c.scorePair(env, pr[0], pr[1])
	}
	// Latch maintenance for pairs the broad-phase skipped: they are
	// guaranteed farther apart than NearMissDist, so the brute pass
	// would have reset their latches (unless the pair is currently
	// risk-irrelevant, which keeps the latch in both passes).
	c.releaseSkippedLatches(c.inContact)
	c.releaseSkippedLatches(c.inNear)
}

func (c *Collector) releaseSkippedLatches(latch map[[2]int]bool) {
	for key, on := range latch {
		if !on || c.scoredThisTick(key) {
			continue
		}
		if c.relevant[key[0]] || c.relevant[key[1]] {
			delete(latch, key)
		}
	}
}

// scoredThisTick reports whether the broad phase paired key this tick.
// CandidatePairs emits pairBuf sorted, so a binary search finds it.
func (c *Collector) scoredThisTick(key [2]int) bool {
	lo, hi := 0, len(c.pairBuf)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p := c.pairBuf[m]; p[0] < key[0] || p[0] == key[0] && p[1] < key[1] {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(c.pairBuf) && c.pairBuf[lo] == key
}

// addModeTime credits dt to probe i's time in mode. A probe visits a
// handful of modes, so a scan finds the entry without hashing.
func (c *Collector) addModeTime(i int, mode string, dt time.Duration) {
	for k := range c.modeTime[i] {
		if c.modeTime[i][k].mode == mode {
			c.modeTime[i][k].d += dt
			return
		}
	}
	c.modeTime[i] = append(c.modeTime[i], modeSpan{mode, dt})
}

// scorePair runs the narrow phase for one pair against the per-tick
// footprint and relevance caches. Pairs that are not currently
// risk-relevant are skipped but keep their latched contact/near
// state: one continuous contact that spans a risk-relevance
// transition (e.g. a mode change mid-overlap) must stay a single
// edge-triggered event, not re-trigger on re-entry.
func (c *Collector) scorePair(env *sim.Env, i, j int) {
	if !c.relevant[i] && !c.relevant[j] {
		return
	}
	a, b := c.probes[i], c.probes[j]
	d := c.boxes[i].Dist(c.boxes[j])
	if !c.sepSeen || d < c.minSep {
		c.minSep = d
		c.sepSeen = true
	}
	key := [2]int{i, j}
	if d <= ContactEpsilon {
		if !c.inContact[key] {
			c.inContact[key] = true
			c.collisions++
			env.Emit(sim.EventCollision, a.ID+"+"+b.ID, "footprint overlap")
		}
	} else {
		delete(c.inContact, key)
		if d < c.NearMissDist {
			if !c.inNear[key] {
				c.inNear[key] = true
				c.nearMisses++
				env.Emit(sim.EventNearMiss, a.ID+"+"+b.ID,
					fmt.Sprintf("separation %.2fm", d))
			}
		} else {
			delete(c.inNear, key)
		}
	}
}

// Report summarises a finished run.
type Report struct {
	Duration     time.Duration
	TaskUnits    float64
	Productivity float64 // task units per simulated minute
	Collisions   int
	NearMisses   int
	// MinSeparation is the smallest footprint gap observed over any
	// risk-relevant pair, clamped from above to the collector's
	// NearMissDist (the broad-phase radius): separations beyond the
	// near-miss threshold are not safety-meaningful and the spatial
	// index does not measure them, so a run whose closest pass stayed
	// outside near-miss range reports exactly NearMissDist. -1 when no
	// risk-relevant pair was ever observed.
	MinSeparation float64
	Interventions int
	// ModeShare maps constituent -> mode -> fraction of run time.
	ModeShare map[string]map[string]float64
	// OperationalShare is the mean fraction of time constituents
	// spent pursuing the strategic goal (nominal+degraded).
	OperationalShare float64
	// StoppedInLane is total time constituents sat stopped in active
	// space during MRM/MRC.
	StoppedInLane time.Duration
	// RiskExposure is the integral of residual stop risk over time
	// spent in MRC (risk-seconds): the longer MRCs stay unresolved,
	// the larger it grows.
	RiskExposure float64
	// Manoeuvres counts the MRM manoeuvres (including fallback hops and
	// mid-MRM replans) whose transition risk was measured.
	Manoeuvres int
	// TransitionRiskMean is the mean measured transition risk per
	// manoeuvre over the whole fleet (0 when no manoeuvre ran).
	TransitionRiskMean float64
	// TransitionRiskMax is the highest per-manoeuvre transition risk
	// observed on any constituent.
	TransitionRiskMax float64
}

// Report computes the summary.
func (c *Collector) Report() Report {
	r := Report{
		Duration:      c.duration,
		TaskUnits:     c.taskUnits,
		Collisions:    c.collisions,
		NearMisses:    c.nearMisses,
		MinSeparation: math.Min(c.minSep, c.NearMissDist),
		RiskExposure:  c.riskExposure,
		ModeShare:     make(map[string]map[string]float64, len(c.probes)),
	}
	if !c.sepSeen {
		// Pairs existed but none came within broad-phase range: the
		// floor is the clamp itself. No pairs at all: -1.
		r.MinSeparation = -1
		if c.pairSeen {
			r.MinSeparation = c.NearMissDist
		}
	}
	if c.duration > 0 {
		r.Productivity = c.taskUnits / c.duration.Minutes()
	}
	var opSum, riskSum float64
	for i, p := range c.probes {
		share := make(map[string]float64)
		for _, ms := range c.modeTime[i] {
			if c.duration > 0 {
				share[ms.mode] = ms.d.Seconds() / c.duration.Seconds()
			}
		}
		r.ModeShare[p.ID] = share
		opSum += share["nominal"] + share["degraded"]
		r.StoppedInLane += c.stoppedLane[i]
		if p.Interventions != nil {
			r.Interventions += p.Interventions()
		}
		if p.TransitionRisk != nil {
			sum, max, n := p.TransitionRisk()
			riskSum += sum
			r.Manoeuvres += n
			if max > r.TransitionRiskMax {
				r.TransitionRiskMax = max
			}
		}
	}
	if r.Manoeuvres > 0 {
		r.TransitionRiskMean = riskSum / float64(r.Manoeuvres)
	}
	if len(c.probes) > 0 {
		r.OperationalShare = opSum / float64(len(c.probes))
	}
	return r
}

// String renders the report for CLI output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "duration           %s\n", r.Duration)
	fmt.Fprintf(&b, "task units         %.1f\n", r.TaskUnits)
	fmt.Fprintf(&b, "productivity       %.2f units/min\n", r.Productivity)
	fmt.Fprintf(&b, "operational share  %.1f%%\n", r.OperationalShare*100)
	fmt.Fprintf(&b, "collisions         %d\n", r.Collisions)
	fmt.Fprintf(&b, "near misses        %d\n", r.NearMisses)
	if r.MinSeparation >= 0 {
		fmt.Fprintf(&b, "min separation     %.2f m\n", r.MinSeparation)
	}
	fmt.Fprintf(&b, "interventions      %d\n", r.Interventions)
	fmt.Fprintf(&b, "stopped in lane    %s\n", r.StoppedInLane)
	fmt.Fprintf(&b, "risk exposure      %.1f risk-s\n", r.RiskExposure)
	if r.Manoeuvres > 0 {
		fmt.Fprintf(&b, "transition risk    %.3f mean / %.3f max over %d manoeuvre(s)\n",
			r.TransitionRiskMean, r.TransitionRiskMax, r.Manoeuvres)
	}
	ids := make([]string, 0, len(r.ModeShare))
	for id := range r.ModeShare {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		share := r.ModeShare[id]
		modes := make([]string, 0, len(share))
		for m := range share {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		fmt.Fprintf(&b, "  %-12s", id)
		for _, m := range modes {
			fmt.Fprintf(&b, " %s=%.0f%%", m, share[m]*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
