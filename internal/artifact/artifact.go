// Package artifact serializes run results into schema-stable,
// machine-readable artifacts: per-experiment bundles (table, recorded
// rig runs, event streams as JSON/JSONL) and a run-level
// bench.json with wall-clock accounting. The paper's claims (Table I
// capability deltas, the Fig. 2 global-vs-local trade-off) are
// quantitative, so every experiment run must leave replayable,
// diffable evidence rather than only human-oriented text tables.
//
// Schema stability contract: the JSON field set and field names of
// every exported type here are locked by golden tests. Additions are
// allowed (consumers must ignore unknown fields); renames and removals
// are schema breaks and require bumping the Schema constants.
//
// Determinism contract: capturing and writing a bundle consults no
// wall clock and no map iteration order — for a given seed the bundle
// bytes are identical whatever the worker count. Wall-clock time
// appears only in the bench report, which is explicitly not
// deterministic.
package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sim"
)

// Schema identifiers embedded in every artifact file.
const (
	SchemaBundle   = "coopmrm/artifact/v1"
	SchemaBench    = "coopmrm/bench/v1"
	SchemaCampaign = "coopmrm/campaign/v1"
)

// Metrics mirrors metrics.Report with stable JSON names and durations
// flattened to seconds.
type Metrics struct {
	DurationSeconds      float64                       `json:"duration_seconds"`
	TaskUnits            float64                       `json:"task_units"`
	Productivity         float64                       `json:"productivity_units_per_min"`
	Collisions           int                           `json:"collisions"`
	NearMisses           int                           `json:"near_misses"`
	MinSeparationM       float64                       `json:"min_separation_m"` // -1: no pair observed
	Interventions        int                           `json:"interventions"`
	OperationalShare     float64                       `json:"operational_share"`
	StoppedInLaneSeconds float64                       `json:"stopped_in_lane_seconds"`
	RiskExposure         float64                       `json:"risk_exposure_risk_seconds"`
	Manoeuvres           int                           `json:"manoeuvres,omitempty"`
	TransitionRiskMean   float64                       `json:"transition_risk_mean,omitempty"`
	TransitionRiskMax    float64                       `json:"transition_risk_max,omitempty"`
	ModeShare            map[string]map[string]float64 `json:"mode_share,omitempty"`
}

// CaptureMetrics converts a metrics report to its wire form.
func CaptureMetrics(r metrics.Report) Metrics {
	return Metrics{
		DurationSeconds:      r.Duration.Seconds(),
		TaskUnits:            r.TaskUnits,
		Productivity:         r.Productivity,
		Collisions:           r.Collisions,
		NearMisses:           r.NearMisses,
		MinSeparationM:       r.MinSeparation,
		Interventions:        r.Interventions,
		OperationalShare:     r.OperationalShare,
		StoppedInLaneSeconds: r.StoppedInLane.Seconds(),
		RiskExposure:         r.RiskExposure,
		Manoeuvres:           r.Manoeuvres,
		TransitionRiskMean:   r.TransitionRiskMean,
		TransitionRiskMax:    r.TransitionRiskMax,
		ModeShare:            r.ModeShare,
	}
}

// CommStats is the network delivery accounting of one run.
type CommStats struct {
	Sent    int64 `json:"sent"`
	Dropped int64 `json:"dropped"`
	// DroppedBy attributes the drops per cause (unregistered,
	// node_down, link_down, loss, self); zero-count causes are
	// omitted, and the map is absent entirely when nothing was
	// dropped — a zero-chaos run's bundle stays byte-identical to the
	// pre-chaos schema.
	DroppedBy map[string]int64 `json:"dropped_by,omitempty"`
	Pending   int              `json:"pending"`
	Endpoints []string         `json:"endpoints,omitempty"`
}

// CaptureComm snapshots a network's accounting (nil-safe).
func CaptureComm(n *comm.Network) *CommStats {
	if n == nil {
		return nil
	}
	sent, dropped := n.Stats()
	stats := &CommStats{
		Sent:      sent,
		Dropped:   dropped,
		Pending:   n.Pending(),
		Endpoints: n.Endpoints(),
	}
	if dropped > 0 {
		b := n.StatsBreakdown()
		stats.DroppedBy = make(map[string]int64)
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"unregistered", b.Unregistered},
			{"node_down", b.NodeDown},
			{"link_down", b.LinkDown},
			{"loss", b.Loss},
			{"self", b.Self},
		} {
			if c.v > 0 {
				stats.DroppedBy[c.name] = c.v
			}
		}
	}
	return stats
}

// FaultRecord is one injected fault in the wire form.
type FaultRecord struct {
	ID             string  `json:"id"`
	Target         string  `json:"target"`
	Kind           string  `json:"kind"`
	Detail         string  `json:"detail,omitempty"`
	Severity       float64 `json:"severity"`
	Permanent      bool    `json:"permanent"`
	AtSeconds      float64 `json:"at_seconds"`
	ClearAtSeconds float64 `json:"clear_at_seconds,omitempty"`
}

// CaptureFaults snapshots an injector's applied-fault history
// (nil-safe).
func CaptureFaults(in *fault.Injector) []FaultRecord {
	if in == nil {
		return nil
	}
	applied := in.Applied()
	out := make([]FaultRecord, 0, len(applied))
	for _, f := range applied {
		rec := FaultRecord{
			ID:        f.ID,
			Target:    f.Target,
			Kind:      f.Kind.String(),
			Detail:    f.Detail,
			Severity:  f.Severity,
			Permanent: f.Permanent,
			AtSeconds: f.At.Seconds(),
		}
		if !f.Permanent {
			rec.ClearAtSeconds = f.ClearAt.Seconds()
		}
		out = append(out, rec)
	}
	return out
}

// Run is one recorded rig run inside an experiment. The event stream
// is carried out-of-line: the run index stores its count and relative
// file name, the bundle writer emits the JSONL file.
type Run struct {
	Name           string         `json:"name"`
	Metrics        Metrics        `json:"metrics"`
	Comm           *CommStats     `json:"comm,omitempty"`
	Faults         []FaultRecord  `json:"faults,omitempty"`
	EventHistogram map[string]int `json:"event_histogram,omitempty"`
	EventCount     int            `json:"event_count"`
	EventsFile     string         `json:"events_file,omitempty"`

	events []sim.Event
}

// CaptureRun snapshots everything observable about one finished rig
// run. Any of log, net, inj may be nil.
func CaptureRun(name string, rep metrics.Report, log *sim.EventLog,
	net *comm.Network, inj *fault.Injector) Run {
	run := Run{
		Name:    name,
		Metrics: CaptureMetrics(rep),
		Comm:    CaptureComm(net),
		Faults:  CaptureFaults(inj),
	}
	if log != nil {
		run.events = log.Events()
		run.EventCount = len(run.events)
		if h := log.KindHistogram(); len(h) > 0 {
			run.EventHistogram = make(map[string]int, len(h))
			for k, n := range h {
				run.EventHistogram[string(k)] = n
			}
		}
	}
	return run
}

// Recorder accumulates the runs of one experiment, in record order.
// One recorder belongs to exactly one experiment job; the parallel
// harness gives every job its own, so bundles stay deterministic.
type Recorder struct {
	runs    []Run
	details []BenchDetail
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one run.
func (r *Recorder) Record(run Run) { r.runs = append(r.runs, run) }

// Runs returns the recorded runs in record order.
func (r *Recorder) Runs() []Run {
	out := make([]Run, len(r.runs))
	copy(out, r.runs)
	return out
}

// RecordDetail appends one fine-grained bench measurement. Details
// flow into bench.json, never into bundles — they carry wall-clock
// throughput, which is exactly the quantity the determinism contract
// keeps out of bundle bytes.
func (r *Recorder) RecordDetail(d BenchDetail) { r.details = append(r.details, d) }

// Details returns the recorded bench details in record order.
func (r *Recorder) Details() []BenchDetail {
	out := make([]BenchDetail, len(r.details))
	copy(out, r.details)
	return out
}

// Table is the machine-readable form of an experiment table.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Paper  string     `json:"paper,omitempty"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Bundle is one experiment's artifact set.
type Bundle struct {
	Table Table
	Runs  []Run
}

// tableFile is the on-disk form of table.json.
type tableFile struct {
	Schema string `json:"schema"`
	Table  Table  `json:"table"`
}

// runsFile is the on-disk form of runs.json.
type runsFile struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Runs       []Run  `json:"runs"`
}

// WriteBundle writes the bundle under dir/<table.ID>: table.json, a
// runs.json index, and one events JSONL file per recorded run that
// carries events. The output bytes depend only on the bundle
// contents.
//
// The write is atomic at the bundle level: every file is staged into a
// hidden sibling temp directory which is renamed into place, so a
// crash or error mid-write never publishes a partial bundle. Readers —
// and the coopmrmd result cache in particular — treat a bundle
// directory's presence as validity, which a torn table.json/runs.json
// pair would silently betray.
func WriteBundle(dir string, b Bundle) error {
	if b.Table.ID == "" {
		return fmt.Errorf("artifact: bundle has no table ID")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	tmp, err := os.MkdirTemp(dir, "."+b.Table.ID+".tmp-")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	// Cleanup on every failure path; after a successful rename the
	// staged path no longer exists and this is a no-op.
	defer os.RemoveAll(tmp)
	if err := os.Chmod(tmp, 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := writeJSONFile(filepath.Join(tmp, "table.json"),
		tableFile{Schema: SchemaBundle, Table: b.Table}); err != nil {
		return err
	}
	runs := make([]Run, len(b.Runs))
	copy(runs, b.Runs)
	for i := range runs {
		if runs[i].EventCount > 0 {
			runs[i].EventsFile = fmt.Sprintf("events/%03d-%s.jsonl", i, slug(runs[i].Name))
			if err := writeEventsFile(filepath.Join(tmp, runs[i].EventsFile), runs[i].events); err != nil {
				return err
			}
		}
	}
	if err := writeJSONFile(filepath.Join(tmp, "runs.json"),
		runsFile{Schema: SchemaBundle, Experiment: b.Table.ID, Runs: runs}); err != nil {
		return err
	}
	// Swap the complete staging directory in. A previous bundle is
	// replaced only once the new one is fully written; the window with
	// no bundle present is the price of never exposing a partial one.
	final := filepath.Join(dir, b.Table.ID)
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

// slug maps a run name to a filesystem-safe fragment.
func slug(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, name)
}

// writeFileHook, when non-nil, intercepts every staged bundle file
// write with the path about to be written; returning an error aborts
// the write. Test-only: it simulates a crash mid-bundle-write for the
// atomicity regression tests.
var writeFileHook func(path string) error

func writeJSONFile(path string, v any) error {
	if writeFileHook != nil {
		if err := writeFileHook(path); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: marshal %s: %w", filepath.Base(path), err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

func writeEventsFile(path string, events []sim.Event) error {
	if writeFileHook != nil {
		if err := writeFileHook(path); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := sim.WriteEvents(f, events); err != nil {
		f.Close()
		return fmt.Errorf("artifact: %w", err)
	}
	return f.Close()
}

// BenchExperiment is one experiment's timing entry in the bench
// report. For seed sweeps the wall time is the sum over per-seed jobs;
// WallSdSeconds/WallSamples then carry the per-seed sample standard
// deviation and sample count, which lets benchdiff gate on a
// confidence interval instead of a fixed threshold (both are absent
// for single-run experiments — a schema addition, not a break).
type BenchExperiment struct {
	ID            string  `json:"id"`
	WallSeconds   float64 `json:"wall_seconds"`
	WallSdSeconds float64 `json:"wall_sd_seconds,omitempty"`
	WallSamples   int     `json:"wall_samples,omitempty"`
	Runs          int     `json:"runs"`
	Rows          int     `json:"rows"`
}

// BenchDetail is one fine-grained timing measurement inside an
// experiment: a single rig run with its tick throughput. E18's ticks/s
// per row lives here — the experiment *table* must stay
// byte-deterministic, so anything derived from the wall clock is
// reported through bench.json instead. The campaign fields (Seeds,
// SeedsPerSec) carry the E20 warm-rig throughput claim: a seed-sweep
// arm reports how many seeds it cycled and its rig-cycling rate (a
// schema addition, not a break).
type BenchDetail struct {
	ID          string  `json:"id"` // experiment / arm label, e.g. "E18/pairs=500"
	Entities    int     `json:"entities"`
	Ticks       int64   `json:"ticks"`
	WallSeconds float64 `json:"wall_seconds"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	Seeds       int     `json:"seeds,omitempty"`
	SeedsPerSec float64 `json:"seeds_per_sec,omitempty"`
}

// ServeBench is one sustained-throughput measurement of the coopmrmd
// job server: Clients concurrent clients submitting Jobs jobs (Runs
// underlying experiment runs) against a cold or warm result cache.
// Like every bench quantity it is wall-clock and intentionally not
// deterministic; a schema addition to bench/v1, not a break.
type ServeBench struct {
	ID          string  `json:"id"` // measurement label, e.g. "serve/cold"
	Clients     int     `json:"clients"`
	Jobs        int     `json:"jobs"`
	Runs        int     `json:"runs"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
}

// Bench is the run-level bench.json: wall-clock per experiment plus
// the harness configuration that produced it. Unlike bundles it is
// *not* byte-stable across runs — wall time is the payload.
// Experiments is omitted when empty so serve-only reports
// (BENCH_serve.json) don't carry an "experiments": null stub; readers
// already treat a missing list and an empty one alike.
type Bench struct {
	Schema      string            `json:"schema"`
	Parallel    int               `json:"parallel"`
	Seed        int64             `json:"seed"`
	Seeds       int               `json:"seeds"`
	Quick       bool              `json:"quick"`
	WallSeconds float64           `json:"wall_seconds"`
	Experiments []BenchExperiment `json:"experiments,omitempty"`
	Details     []BenchDetail     `json:"details,omitempty"`
	Serve       []ServeBench      `json:"serve,omitempty"`
}

// NewBench returns a bench report with the schema stamped.
func NewBench(parallel int, seed int64, seeds int, quick bool) Bench {
	if seeds < 1 {
		seeds = 1
	}
	return Bench{Schema: SchemaBench, Parallel: parallel, Seed: seed, Seeds: seeds, Quick: quick}
}

// Add appends one experiment's timing and accumulates the total.
func (b *Bench) Add(id string, wall time.Duration, runs, rows int) {
	b.Experiments = append(b.Experiments, BenchExperiment{
		ID:          id,
		WallSeconds: wall.Seconds(),
		Runs:        runs,
		Rows:        rows,
	})
	b.WallSeconds += wall.Seconds()
}

// AddStats is Add for seed sweeps: wall is the per-seed sum, wallSd
// the Bessel-corrected sample sd of the per-seed walls, samples the
// per-seed job count. Non-positive sd or samples < 2 degrade to plain
// Add (no variance recorded).
func (b *Bench) AddStats(id string, wall, wallSd time.Duration, samples, runs, rows int) {
	if wallSd <= 0 || samples < 2 {
		b.Add(id, wall, runs, rows)
		return
	}
	b.Experiments = append(b.Experiments, BenchExperiment{
		ID:            id,
		WallSeconds:   wall.Seconds(),
		WallSdSeconds: wallSd.Seconds(),
		WallSamples:   samples,
		Runs:          runs,
		Rows:          rows,
	})
	b.WallSeconds += wall.Seconds()
}

// AddDetail appends one fine-grained measurement (its wall time is
// already inside an experiment's Add total, so it does not accumulate
// into WallSeconds again).
func (b *Bench) AddDetail(d BenchDetail) {
	b.Details = append(b.Details, d)
}

// WriteBench writes the bench report to path.
func WriteBench(path string, b Bench) error {
	return writeJSONFile(path, b)
}

// CampaignCell is the serialized per-cell streaming accumulator of a
// checkpointed seed-sweep campaign: Welford running moments plus the
// flags that drive the aggregate rendering. Mean and M2 round-trip
// exactly through JSON (Go emits the shortest representation that
// parses back to the same float64), which is what makes a resumed
// campaign byte-identical to an uninterrupted one.
type CampaignCell struct {
	N       int64  `json:"n"`
	First   string `json:"first,omitempty"`
	AllSame bool   `json:"all_same"`
	Numeric bool   `json:"numeric"`
	AllPct  bool   `json:"all_pct"`
	// Welford running mean and sum of squared deviations (M2); only
	// meaningful while Numeric holds.
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	// Distinct cell strings seen so far, sorted, capped by the
	// campaign layer; Overflow marks that the cap was hit.
	Distinct []string `json:"distinct,omitempty"`
	Overflow bool     `json:"overflow,omitempty"`
}

// Campaign is the campaign/v1 checkpoint of a streaming seed sweep:
// the planned seed list, the contiguous completed prefix (seeds are
// folded in seed order, so Seeds[:Completed] IS the completed-seed
// set), the table metadata, and one accumulator per cell. Everything
// here is deterministic — wall-clock accounting never enters a
// checkpoint.
type Campaign struct {
	Schema     string  `json:"schema"`
	Experiment string  `json:"experiment"`
	Quick      bool    `json:"quick"`
	Seeds      []int64 `json:"seeds"`
	Completed  int     `json:"completed"`

	Title  string   `json:"title,omitempty"`
	Paper  string   `json:"paper,omitempty"`
	Note   string   `json:"note,omitempty"`
	Header []string `json:"header,omitempty"`

	Cells [][]CampaignCell `json:"cells"`
}

// WriteCampaign writes the checkpoint atomically: the JSON lands in a
// sibling temp file which is renamed over path, so a campaign killed
// mid-checkpoint leaves the previous intact checkpoint, never a
// truncated one.
func WriteCampaign(path string, c Campaign) error {
	c.Schema = SchemaCampaign
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: marshal campaign: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		// A failed write may still have created a partial temp file —
		// don't strand it next to the checkpoint.
		os.Remove(tmp)
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		err = fmt.Errorf("artifact: %w", err)
		if rmErr := os.Remove(tmp); rmErr != nil {
			// Surface both failures: the checkpoint that never landed
			// and the temp file stranded beside it.
			err = errors.Join(err, fmt.Errorf("artifact: stranded temp: %w", rmErr))
		}
		return err
	}
	return nil
}

// ReadCampaign loads and schema-checks a checkpoint.
func ReadCampaign(path string) (Campaign, error) {
	var c Campaign
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("artifact: %s: %w", path, err)
	}
	if c.Schema != SchemaCampaign {
		return c, fmt.Errorf("artifact: %s: schema %q, want %q", path, c.Schema, SchemaCampaign)
	}
	if c.Completed < 0 || c.Completed > len(c.Seeds) {
		return c, fmt.Errorf("artifact: %s: completed %d out of range for %d seeds",
			path, c.Completed, len(c.Seeds))
	}
	// Every fold adds one value to every cell (cells that appear late
	// are backfilled to the folded count), so a cell whose count
	// differs from Completed can only come from corruption.
	for r, row := range c.Cells {
		for i, cell := range row {
			if cell.N != int64(c.Completed) {
				return c, fmt.Errorf("artifact: %s: cell [%d][%d] has n=%d, want completed=%d",
					path, r, i, cell.N, c.Completed)
			}
		}
	}
	return c, nil
}
