package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coopmrm"
	"coopmrm/internal/artifact"
	"coopmrm/internal/fault"
	"coopmrm/internal/metrics"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
)

// The per-seed cells below mirror coopmrm's E19 and E20 cells (runE19Seed,
// runE20Seed are unexported): the same rigs, horizons and table shape, so a
// folded campaign here is byte-identical to the experiment's own over the
// same seeds. The self-test holds that for E19.

var e19Classes = []struct {
	label  string
	policy scenario.PolicyKind
}{
	{"individual", scenario.PolicyBaseline},
	{"cooperative", scenario.PolicyStatusSharing},
	{"collaborative", scenario.PolicyCoordinated},
}

var e19Faults = []struct {
	label    string
	kind     fault.Kind
	severity float64
}{
	{"sensor_blind", fault.KindSensor, 1.0},
	{"steering_loss", fault.KindSteering, 1.0},
	{"brake_severe", fault.KindBrake, 0.92},
}

const (
	// e19Horizon is the E19 quick horizon of one class x fault run.
	e19Horizon = 90 * time.Second
	// e20Horizon is E20's per-seed horizon: two 100 ms ticks.
	e20Horizon = 200 * time.Millisecond
	// turnoverEvery is the checkpoint interval of cmd/experiments'
	// -checkpoint-every default.
	turnoverEvery = 1000
	// turnoverWarmSeeds is the turnover warm-up: one checkpoint interval.
	turnoverWarmSeeds = turnoverEvery
	// turnoverPlan is the seed count of one turnover campaign, the ops
	// of one round. A checkpoint serializes the whole plan, so the plan
	// size fixes the checkpoint cost.
	turnoverPlan = 20_000
	// mrmWarmSeeds is the campaign-mrm warm-up.
	mrmWarmSeeds = 2
)

// campaign is a streaming seed campaign folded by coopmrm.SweepSeedsStream
// at parallelism 1. The op is one seed: the gap between OnFold calls.
type campaign struct {
	in       runIn
	turnover bool // E20 cell on warm rigs with checkpoints; else E19 cell on fresh rigs
	warm     []int64
	plans    [][]int64 // the op seeds, one campaign per plan
	tables   []coopmrm.Table

	tr       *tracer
	rec      *recorder
	marks    tickMarks
	opFailed bool
	cellDone time.Time
	work     workCounts
	runs     hash.Hash // fingerprints of every timed rig run
	err      error
}

func openMRM(in runIn) (instance, error)      { return newCampaign(in, false), nil }
func openTurnover(in runIn) (instance, error) { return newCampaign(in, true), nil }

// newCampaign generates the seed plans, one campaign per round, from the
// workload seed. Every round warms up on the same seeds. Turnover seeds
// are consecutive from a base of fixed digit count, so the checkpoint,
// which serializes the whole plan, has the same size for every workload
// seed.
func newCampaign(in runIn, turnover bool) *campaign {
	rng := rand.New(rand.NewSource(in.seed))
	c := &campaign{in: in, turnover: turnover, runs: sha256.New()}
	var seeds []int64
	if turnover {
		base := 1_000_000 + rng.Int63n(8_000_000)
		c.warm = consecutive(base, turnoverWarmSeeds)
		seeds = consecutive(base+turnoverWarmSeeds, in.rounds*in.ops)
	} else {
		c.warm = distinctSeeds(rng, mrmWarmSeeds, nil)
		seeds = distinctSeeds(rng, in.rounds*in.ops, c.warm)
	}
	for r := 0; r < in.rounds; r++ {
		c.plans = append(c.plans, seeds[r*in.ops:(r+1)*in.ops])
	}
	return c
}

func (c *campaign) checkpoint(plan int) string {
	return filepath.Join(c.in.dir, fmt.Sprintf("campaign-%d.json", plan))
}

func consecutive(base int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = base + int64(i)
	}
	return s
}

// distinctSeeds draws n seeds in [1, 2^31) that repeat neither each other
// nor any of avoid.
func distinctSeeds(rng *rand.Rand, n int, avoid []int64) []int64 {
	seen := make(map[int64]bool, n+len(avoid))
	for _, s := range avoid {
		seen[s] = true
	}
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + rng.Int63n(1<<31-1)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func (c *campaign) experiment() coopmrm.Experiment {
	if c.turnover {
		return coopmrm.Experiment{ID: "E20", Title: "campaign throughput cell",
			Paper: "perf extension (snapshot/reset rig reuse)", Run: c.e20Cell}
	}
	return coopmrm.Experiment{ID: "E19", Title: "transition risk per interaction class and fault mode",
		Paper: "planner extension (quantified Definition 3 risk)", Run: c.e19Cell}
}

func (c *campaign) options() coopmrm.Options {
	return coopmrm.Options{Quick: true, ReuseRigs: c.turnover}
}

func (c *campaign) config(path string) coopmrm.CampaignConfig {
	if !c.turnover {
		return coopmrm.CampaignConfig{}
	}
	return coopmrm.CampaignConfig{Checkpoint: path, Every: turnoverEvery}
}

// discard empties the warm-rig pool, so every turnover setup builds its
// rig the way a fresh -reuse-rigs process does.
func (c *campaign) discard() error {
	if !c.turnover {
		return nil
	}
	_, err := scenario.AcquireQuarry(e20Config(1))
	return err
}

// setup runs the warm-up campaign, with its checkpoint for turnover. Its
// counts are not the timed ops' and are dropped.
func (c *campaign) setup(r int, tr *tracer) error {
	c.tr, c.rec = tr, nil
	work := c.work
	ckpt := filepath.Join(c.in.dir, fmt.Sprintf("setup-%d.json", r))
	_, err := coopmrm.SweepSeedsStream(c.experiment(), c.options(), c.warm, 1, c.config(ckpt))
	c.work = work
	return err
}

// run folds round r's plan as one campaign.
func (c *campaign) run(r int, tr *tracer, rec *recorder) {
	c.tr, c.rec = tr, rec
	cfg := c.config(c.checkpoint(r))
	cfg.OnFold = func(done, total int) error {
		if tr != nil {
			kind := spanFold
			if c.turnover && done%turnoverEvery == 0 && done < total {
				kind = spanCheckpoint // the gap includes the checkpoint write
			}
			tr.add(span{kind: kind, parent: rec.span, op: rec.op, start: tr.at(c.cellDone), end: tr.now()})
		}
		rec.done(!c.opFailed)
		c.opFailed = false
		return nil
	}
	t, err := coopmrm.SweepSeedsStream(c.experiment(), c.options(), c.plans[r], 1, cfg)
	if err != nil {
		c.fail(err)
		return
	}
	c.tables = append(c.tables, t)
}

// cellRun is one rig's horizon inside a seed, with its counts.
func (c *campaign) cellRun(rig *scenario.QuarryRig, horizon time.Duration) scenario.Result {
	parent, op := int32(-1), int32(-1)
	if c.rec != nil {
		parent, op = c.rec.span, c.rec.op
	}
	id := int32(-1)
	if c.tr != nil {
		c.marks.attach(rig.Engine)
		id = c.tr.begin(spanRun, parent, op)
		c.marks.reset()
	}
	h0, m0 := rig.World.Graph().RouteCacheStats()
	res := rig.Run(horizon)
	c.tr.end(id)
	c.tr.setPhases(id, &c.marks)
	h1, m1 := rig.World.Graph().RouteCacheStats()
	sent, dropped := rig.Net.Stats()
	replans := 0
	for _, k := range rig.All() {
		replans += k.Replans()
	}
	w := workCounts{
		ticks:       rig.Engine.Env().Clock.Tick(),
		events:      int64(res.Log.Len()),
		sent:        sent,
		dropped:     dropped,
		manoeuvres:  int64(res.Report.Manoeuvres),
		replans:     int64(replans),
		routeHits:   int64(h1 - h0),
		routeMisses: int64(m1 - m0),
	}
	c.work.add(w)
	if c.rec != nil {
		fingerprint(c.runs, res.Report, w)
	}
	return res
}

// fingerprint hashes the exact numbers of one rig run that the campaign
// table rounds to two decimals, so the digest sees any change to the
// simulation, including one the trace markers could cause.
func fingerprint(h hash.Hash, r metrics.Report, w workCounts) {
	var b [12 * 8]byte
	for i, v := range []uint64{
		uint64(r.Duration), uint64(r.Collisions), uint64(r.NearMisses), uint64(r.Interventions),
		math.Float64bits(r.MinSeparation), math.Float64bits(r.OperationalShare),
		math.Float64bits(r.RiskExposure), uint64(r.Manoeuvres),
		math.Float64bits(r.TransitionRiskMean), math.Float64bits(r.TransitionRiskMax),
		uint64(w.events), uint64(w.sent),
	} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	h.Write(b[:])
}

func (c *campaign) acquireSpan() int32 {
	if c.rec == nil {
		return c.tr.begin(spanAcquire, -1, -1)
	}
	return c.tr.begin(spanAcquire, c.rec.span, c.rec.op)
}

// e19Cell mirrors runE19Seed: one fresh quarry per class x fault, truck1_1
// faulted at 30 s, 90 s horizon.
func (c *campaign) e19Cell(opt coopmrm.Options) coopmrm.Table {
	t := coopmrm.Table{
		ID:     "E19",
		Title:  "transition risk per interaction class and fault mode",
		Paper:  "planner extension (quantified Definition 3 risk)",
		Header: []string{"class", "fault", "manoeuvres", "risk_mean", "risk_max", "mrm_switches", "replans", "units_per_min"},
		Note:   "truck1_1 faulted at t=30s, permanent; risk_mean/risk_max are the measured per-manoeuvre transition risks (planned trajectories and scored scripted stops alike)",
	}
	for _, class := range e19Classes {
		for _, fm := range e19Faults {
			if err := c.e19Run(&t, opt.Seed, class.label, class.policy, fm.label, fm.kind, fm.severity); err != nil {
				c.fail(err)
			}
		}
	}
	c.cellDone = time.Now()
	return t
}

func (c *campaign) e19Run(t *coopmrm.Table, seed int64, class string, policy scenario.PolicyKind,
	faultLabel string, kind fault.Kind, severity float64) (err error) {
	defer recoverOp(&err)
	id := c.acquireSpan()
	rig, err := scenario.NewQuarry(scenario.QuarryConfig{
		Pairs: 2, TrucksPerPair: 1,
		Policy: policy,
		Seed:   seed,
		Faults: []fault.Fault{{
			ID: "e19", Target: "truck1_1", Kind: kind,
			Severity: severity, Permanent: true, At: 30 * time.Second,
		}},
	})
	c.tr.end(id)
	if err != nil {
		return err
	}
	res := c.cellRun(rig, e19Horizon)
	if res.Report.Manoeuvres == 0 {
		return fmt.Errorf("seed %d %s/%s: faulted truck1_1 ran no manoeuvre", seed, class, faultLabel)
	}
	replans := 0
	for _, k := range rig.All() {
		replans += k.Replans()
	}
	t.AddRow(class, faultLabel,
		strconv.Itoa(res.Report.Manoeuvres),
		f2(res.Report.TransitionRiskMean),
		f2(res.Report.TransitionRiskMax),
		strconv.Itoa(res.Log.Count(sim.EventMRMSwitched)),
		strconv.Itoa(replans),
		f2(rig.Delivered()/e19Horizon.Minutes()))
	return nil
}

func e20Config(seed int64) scenario.QuarryConfig {
	return scenario.QuarryConfig{
		Pairs: 2, TrucksPerPair: 1,
		Policy: scenario.PolicyCoordinated,
		Seed:   seed,
	}
}

// e20Cell mirrors runE20Seed: a pooled 2-pair coordinated quarry run for
// two ticks.
func (c *campaign) e20Cell(opt coopmrm.Options) coopmrm.Table {
	t := coopmrm.Table{
		ID:     "E20",
		Title:  "campaign throughput cell",
		Paper:  "perf extension (snapshot/reset rig reuse)",
		Header: []string{"cell", "events", "sent", "min_sep", "delivered"},
	}
	if err := c.e20Run(&t, opt.Seed); err != nil {
		c.fail(err)
	}
	c.cellDone = time.Now()
	return t
}

func (c *campaign) e20Run(t *coopmrm.Table, seed int64) (err error) {
	defer recoverOp(&err)
	id := c.acquireSpan()
	rig, err := scenario.AcquireQuarry(e20Config(seed))
	c.tr.end(id)
	if err != nil {
		return err
	}
	defer rig.Release()
	res := c.cellRun(rig, e20Horizon)
	sent, _ := rig.Net.Stats()
	t.AddRow("quarry",
		strconv.Itoa(res.Log.Len()),
		strconv.FormatInt(sent, 10),
		f2(res.Report.MinSeparation),
		f2(rig.Delivered()))
	return nil
}

// fail marks the running op failed and keeps the first error.
func (c *campaign) fail(err error) {
	c.opFailed = true
	if c.err == nil {
		c.err = err
	}
}

// finish checks every folded table: one row per cell, every seed of the
// plan folded, and for turnover a final checkpoint that reads back
// complete. The digest covers the tables in plan order and the run
// fingerprints.
func (c *campaign) finish() (string, error) {
	if c.err != nil {
		return "", c.err
	}
	rows := len(e19Classes) * len(e19Faults)
	if c.turnover {
		rows = 1
	}
	if len(c.tables) != len(c.plans) {
		return "", fmt.Errorf("folded %d of %d campaigns", len(c.tables), len(c.plans))
	}
	h := sha256.New()
	for i, t := range c.tables {
		n := len(c.plans[i])
		if len(t.Rows) != rows {
			return "", fmt.Errorf("plan %d folded to %d rows, want %d", i, len(t.Rows), rows)
		}
		if want := fmt.Sprintf("aggregated over %d seeds", n); !strings.HasPrefix(t.Note, want) {
			return "", fmt.Errorf("plan %d table note %q does not cover its %d seeds", i, t.Note, n)
		}
		if c.turnover {
			ck, err := artifact.ReadCampaign(c.checkpoint(i))
			if err != nil {
				return "", err
			}
			if ck.Completed != n || len(ck.Seeds) != n {
				return "", fmt.Errorf("plan %d checkpoint holds %d of %d seeds", i, ck.Completed, n)
			}
		}
		h.Write([]byte(t.Note + "\n" + t.CSV()))
	}
	h.Write(c.runs.Sum(nil))
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (c *campaign) counts() workCounts { return c.work }

func (c *campaign) layers(tr *tracer, m *metricSet) {
	fold := tr.stat(spanFold, true)
	m.set("coopmrm.fold_ms", "ms", fold.meanMs())
	if ck := tr.stat(spanCheckpoint, true); ck.n > 0 {
		m.set("artifact.checkpoint_ms", "ms", ck.meanMs()-fold.meanMs())
	}
	if c.turnover {
		m.set("artifact.checkpoint_bytes", "B", float64(fileSize(c.checkpoint(0))))
	}
}

func (c *campaign) close() error { return nil }

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// checkE19Mirror folds the campaign-mrm cell over the seeds RunE19's quick
// mode uses and requires the table RunE19 itself returns.
func checkE19Mirror(dir string) error {
	const seed = 11
	c := newCampaign(runIn{seed: seed, dir: dir}, false)
	got, err := coopmrm.SweepSeedsStream(c.experiment(), c.options(), consecutive(seed, 3), 1, coopmrm.CampaignConfig{})
	if err != nil {
		return err
	}
	want := coopmrm.RunE19(coopmrm.Options{Quick: true, Seed: seed})
	if got.Note != want.Note || got.CSV() != want.CSV() {
		return fmt.Errorf("the E19 cell mirror folds to another table than RunE19:\n%s\nvs\n%s", got.CSV(), want.CSV())
	}
	return nil
}

// checkE20Mirror folds the campaign-turnover cell over RunE20's quick seed
// plan and requires the campaign digest RunE20 reports for its arms.
func checkE20Mirror(dir string) error {
	const seed = 11
	want := coopmrm.RunE20(coopmrm.Options{Quick: true, Seed: seed})
	c := newCampaign(runIn{seed: seed, dir: dir}, true)
	n, err := strconv.Atoi(want.Cell(0, 1))
	if err != nil {
		return fmt.Errorf("RunE20 seeds cell: %w", err)
	}
	got, err := coopmrm.SweepSeedsStream(c.experiment(), c.options(), consecutive(seed, n), 1, coopmrm.CampaignConfig{})
	if err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(got.CSV()))
	if d := hex.EncodeToString(sum[:6]); d != want.Cell(0, 4) || d != want.Cell(1, 4) {
		return fmt.Errorf("the E20 cell mirror digests to %s, RunE20 to %s/%s", d, want.Cell(0, 4), want.Cell(1, 4))
	}
	return nil
}
