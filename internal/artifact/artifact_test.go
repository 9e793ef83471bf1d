package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/metrics"
	"coopmrm/internal/sim"
	"coopmrm/internal/trace"
)

// fixedRun builds a fully-populated Run from fixed inputs, exercising
// every capture path (metrics, comm, faults, events, trace).
func fixedRun(t *testing.T) Run {
	t.Helper()
	rep := metrics.Report{
		Duration:         90 * time.Second,
		TaskUnits:        12,
		Productivity:     8,
		Collisions:       1,
		NearMisses:       2,
		MinSeparation:    0.25,
		Interventions:    1,
		OperationalShare: 0.75,
		StoppedInLane:    9 * time.Second,
		RiskExposure:     3.5,
		ModeShare: map[string]map[string]float64{
			"truck1": {"nominal": 0.75, "mrm": 0.05, "mrc": 0.2},
		},
	}

	net := comm.NewNetwork(comm.NetConfig{}, sim.NewRNG(1))
	net.MustRegister("truck1")
	net.MustRegister("digger1")
	net.Send(comm.NewMessage("truck1", "digger1", comm.TypeStatus, "pose", nil))
	net.Send(comm.NewMessage("truck1", "ghost", comm.TypeStatus, "pose", nil))
	net.Deliver(time.Second)

	inj := fault.NewInjector(nil)
	if err := inj.Schedule(
		fault.Fault{ID: "radar", Target: "truck1", Kind: fault.KindSensor,
			Severity: 1, Permanent: true, At: 10 * time.Second},
		fault.Fault{ID: "rain", Target: "digger1", Kind: fault.KindSensor,
			Detail: "camera", Severity: 0.5, At: 20 * time.Second, ClearAt: 50 * time.Second},
	); err != nil {
		t.Fatal(err)
	}
	inj.Step(time.Minute)

	log := sim.NewEventLog()
	log.Append(sim.Event{Time: 10 * time.Second, Tick: 100,
		Kind: sim.EventMRMStarted, Subject: "truck1", Detail: "radar loss"})
	log.Append(sim.Event{Time: 30 * time.Second, Tick: 300,
		Kind: sim.EventMRCReached, Subject: "truck1"})

	rec := trace.NewRecorder(time.Second, trace.Source{
		ID:    "truck1",
		Pos:   func() geom.Vec2 { return geom.V(1.5, -2) },
		Speed: func() float64 { return 3 },
		Mode:  func() string { return "mrm" },
	})
	e := sim.NewEngine(sim.Config{Step: 500 * time.Millisecond})
	e.AddPostHook(rec.Hook())
	e.RunFor(2 * time.Second)

	return CaptureRun("arm/seed=1", rep, log, net, inj, rec)
}

// The schema lock: bundle bytes for fixed inputs must match these
// goldens exactly. A diff here is a schema change — if intentional,
// bump SchemaBundle and update the golden.
const goldenTable = `{
  "schema": "coopmrm/artifact/v1",
  "table": {
    "id": "E0",
    "title": "golden",
    "paper": "Fig. 0",
    "note": "fixture",
    "header": [
      "arm",
      "value"
    ],
    "rows": [
      [
        "a",
        "1.5"
      ]
    ]
  }
}
`

const goldenRuns = `{
  "schema": "coopmrm/artifact/v1",
  "experiment": "E0",
  "runs": [
    {
      "name": "arm/seed=1",
      "metrics": {
        "duration_seconds": 90,
        "task_units": 12,
        "productivity_units_per_min": 8,
        "collisions": 1,
        "near_misses": 2,
        "min_separation_m": 0.25,
        "interventions": 1,
        "operational_share": 0.75,
        "stopped_in_lane_seconds": 9,
        "risk_exposure_risk_seconds": 3.5,
        "mode_share": {
          "truck1": {
            "mrc": 0.2,
            "mrm": 0.05,
            "nominal": 0.75
          }
        }
      },
      "comm": {
        "sent": 2,
        "dropped": 1,
        "dropped_by": {
          "unregistered": 1
        },
        "pending": 0,
        "endpoints": [
          "truck1",
          "digger1"
        ]
      },
      "faults": [
        {
          "id": "radar",
          "target": "truck1",
          "kind": "sensor",
          "severity": 1,
          "permanent": true,
          "at_seconds": 10
        },
        {
          "id": "rain",
          "target": "digger1",
          "kind": "sensor",
          "detail": "camera",
          "severity": 0.5,
          "permanent": false,
          "at_seconds": 20,
          "clear_at_seconds": 50
        }
      ],
      "event_histogram": {
        "mrc.reached": 1,
        "mrm.started": 1
      },
      "event_count": 2,
      "events_file": "events/000-arm-seed-1.jsonl",
      "trace_count": 2,
      "trace_file": "trace/000-arm-seed-1.jsonl"
    }
  ]
}
`

const goldenEvents = `{"t":10000000000,"tick":100,"kind":"mrm.started","subject":"truck1","detail":"radar loss"}
{"t":30000000000,"tick":300,"kind":"mrc.reached","subject":"truck1"}
`

const goldenTrace = `{"t_seconds":0,"subject":"truck1","x":1.5,"y":-2,"speed":3,"mode":"mrm"}
{"t_seconds":1,"subject":"truck1","x":1.5,"y":-2,"speed":3,"mode":"mrm"}
`

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

func TestBundleGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	b := Bundle{
		Table: Table{
			ID: "E0", Title: "golden", Paper: "Fig. 0", Note: "fixture",
			Header: []string{"arm", "value"},
			Rows:   [][]string{{"a", "1.5"}},
		},
		Runs: []Run{fixedRun(t)},
	}
	if err := WriteBundle(dir, b); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "E0")
	for _, tc := range []struct{ file, want string }{
		{"table.json", goldenTable},
		{"runs.json", goldenRuns},
		{"events/000-arm-seed-1.jsonl", goldenEvents},
		{"trace/000-arm-seed-1.jsonl", goldenTrace},
	} {
		if got := readFile(t, filepath.Join(base, tc.file)); got != tc.want {
			t.Errorf("%s schema drift:\n--- got ---\n%s\n--- want ---\n%s", tc.file, got, tc.want)
		}
	}
}

// Writing the same bundle twice must produce identical bytes — the
// substrate of the serial-vs-parallel byte-identity guarantee.
func TestBundleDeterministicBytes(t *testing.T) {
	write := func(dir string) map[string]string {
		b := Bundle{
			Table: Table{ID: "E0", Title: "x", Header: []string{"k"}, Rows: [][]string{{"v"}}},
			Runs:  []Run{fixedRun(t)},
		}
		if err := WriteBundle(dir, b); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		root := filepath.Join(dir, "E0")
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			files[rel] = readFile(t, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a := write(t.TempDir())
	b := write(t.TempDir())
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("file sets differ: %d vs %d", len(a), len(b))
	}
	for name, content := range a {
		if b[name] != content {
			t.Errorf("%s differs between identical writes", name)
		}
	}
}

func TestBundleRequiresTableID(t *testing.T) {
	if err := WriteBundle(t.TempDir(), Bundle{}); err == nil {
		t.Error("bundle without table ID should error")
	}
}

func TestCaptureNilSafety(t *testing.T) {
	run := CaptureRun("bare", metrics.Report{}, nil, nil, nil, nil)
	if run.Comm != nil || run.Faults != nil || run.EventCount != 0 || run.TraceCount != 0 {
		t.Errorf("nil captures leaked: %+v", run)
	}
	if CaptureComm(nil) != nil || CaptureFaults(nil) != nil {
		t.Error("nil-safe captures wrong")
	}
}

func TestBenchReport(t *testing.T) {
	b := NewBench(4, 1, 1, true)
	b.Add("E1", 1500*time.Millisecond, 2, 3)
	b.Add("E2", 500*time.Millisecond, 1, 9)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBench(path, b); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	for _, want := range []string{
		`"schema": "coopmrm/bench/v1"`,
		`"parallel": 4`,
		`"wall_seconds": 2`,
		`"id": "E1"`,
		`"runs": 2`,
		`"rows": 9`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("bench.json missing %s:\n%s", want, got)
		}
	}
}

func TestSlug(t *testing.T) {
	if got := slug("global/pairs=3 seed:1"); got != "global-pairs-3-seed-1" {
		t.Errorf("slug = %q", got)
	}
}

// The campaign/v1 schema lock: checkpoint bytes for fixed accumulators
// must match this golden exactly. Byte-identical resume depends on
// Mean/M2 round-tripping through this file, so a diff here is a schema
// change — if intentional, bump SchemaCampaign and update the golden.
const goldenCampaign = `{
  "schema": "coopmrm/campaign/v1",
  "experiment": "E1",
  "quick": true,
  "seeds": [
    1,
    2,
    3
  ],
  "completed": 2,
  "title": "fixture",
  "paper": "Fig. 0",
  "header": [
    "arm",
    "share"
  ],
  "cells": [
    [
      {
        "n": 2,
        "first": "a",
        "all_same": true,
        "numeric": false,
        "all_pct": false,
        "mean": 0,
        "m2": 0
      },
      {
        "n": 2,
        "all_same": false,
        "numeric": true,
        "all_pct": true,
        "mean": 55,
        "m2": 50,
        "distinct": [
          "50%",
          "60%"
        ]
      }
    ]
  ]
}
`

func fixtureCampaign() Campaign {
	return Campaign{
		Experiment: "E1",
		Quick:      true,
		Seeds:      []int64{1, 2, 3},
		Completed:  2,
		Title:      "fixture",
		Paper:      "Fig. 0",
		Header:     []string{"arm", "share"},
		Cells: [][]CampaignCell{{
			{N: 2, First: "a", AllSame: true},
			{N: 2, Numeric: true, AllPct: true, Mean: 55, M2: 50,
				Distinct: []string{"50%", "60%"}},
		}},
	}
}

func TestCampaignGoldenSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := WriteCampaign(path, fixtureCampaign()); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != goldenCampaign {
		t.Errorf("campaign.json schema drift:\n--- got ---\n%s\n--- want ---\n%s",
			got, goldenCampaign)
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	want := fixtureCampaign()
	if err := WriteCampaign(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCampaign(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaCampaign || got.Experiment != "E1" || got.Completed != 2 ||
		len(got.Seeds) != 3 || len(got.Cells) != 1 || len(got.Cells[0]) != 2 {
		t.Errorf("round trip lost shape: %+v", got)
	}
	c := got.Cells[0][1]
	if c.Mean != 55 || c.M2 != 50 || !c.Numeric || !c.AllPct || len(c.Distinct) != 2 {
		t.Errorf("cell round trip: %+v", c)
	}
	// Atomicity: no temp file may survive a successful write.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

func TestReadCampaignValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := ReadCampaign(write("schema.json",
		`{"schema":"coopmrm/other/v1","seeds":[1],"completed":0,"cells":[]}`)); err == nil {
		t.Error("wrong schema should be rejected")
	}
	if _, err := ReadCampaign(write("range.json",
		`{"schema":"coopmrm/campaign/v1","seeds":[1],"completed":2,"cells":[]}`)); err == nil {
		t.Error("completed beyond the seed plan should be rejected")
	}
	if _, err := ReadCampaign(write("count.json",
		`{"schema":"coopmrm/campaign/v1","seeds":[1,2,3],"completed":2,`+
			`"cells":[[{"n":2,"all_same":true,"numeric":true,"all_pct":false,"mean":1,"m2":0},`+
			`{"n":3,"all_same":true,"numeric":true,"all_pct":false,"mean":1,"m2":0}]]}`)); err == nil {
		t.Error("a cell count that disagrees with completed should be rejected")
	}
	if _, err := ReadCampaign(write("junk.json", "{not json")); err == nil {
		t.Error("malformed JSON should be rejected")
	}
	if _, err := ReadCampaign(filepath.Join(dir, "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing file must surface as os.IsNotExist, got %v", err)
	}
}

// FuzzReadCampaign: arbitrary checkpoint bytes either fail ReadCampaign
// — never panic — or load a checkpoint that is consistent (0 ≤
// completed ≤ len(seeds), every cell's n equal to completed) and whose
// write-then-read round trip is stable: rewriting the reloaded
// checkpoint gives the bytes the first write gave.
func FuzzReadCampaign(f *testing.F) {
	golden := []byte(goldenCampaign)
	f.Add(golden)
	for _, n := range []int{0, 1, len(golden) / 4, len(golden) / 2, len(golden) - 3} {
		f.Add(golden[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := ReadCampaign(in)
		if err != nil {
			return
		}
		if c.Completed < 0 || c.Completed > len(c.Seeds) {
			t.Fatalf("accepted completed=%d for %d seeds", c.Completed, len(c.Seeds))
		}
		for r, row := range c.Cells {
			for i, cell := range row {
				if cell.N != int64(c.Completed) {
					t.Fatalf("accepted cell [%d][%d] n=%d, completed=%d", r, i, cell.N, c.Completed)
				}
			}
		}
		first := filepath.Join(dir, "first.json")
		if err := WriteCampaign(first, c); err != nil {
			t.Fatal(err)
		}
		reloaded, err := ReadCampaign(first)
		if err != nil {
			t.Fatalf("rewritten checkpoint rejected: %v", err)
		}
		second := filepath.Join(dir, "second.json")
		if err := WriteCampaign(second, reloaded); err != nil {
			t.Fatal(err)
		}
		if a, b := readFile(t, first), readFile(t, second); a != b {
			t.Fatalf("round trip unstable:\n%s\nvs\n%s", a, b)
		}
	})
}

// AddStats records the per-seed variance when it has one and degrades
// to a plain entry when it does not — wall_sd_seconds must never
// appear with a meaningless value.
func TestBenchAddStats(t *testing.T) {
	b := NewBench(2, 1, 4, true)
	b.AddStats("E1", 2*time.Second, 250*time.Millisecond, 4, 8, 3)
	b.AddStats("E2", time.Second, 0, 4, 1, 3)                    // no variance measured
	b.AddStats("E3", time.Second, 100*time.Millisecond, 1, 1, 3) // single sample
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBench(path, b); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	for _, want := range []string{
		`"wall_sd_seconds": 0.25`,
		`"wall_samples": 4`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("bench.json missing %s:\n%s", want, got)
		}
	}
	if strings.Count(got, "wall_sd_seconds") != 1 {
		t.Errorf("degraded entries must omit wall_sd_seconds:\n%s", got)
	}
	if b.WallSeconds != 4 {
		t.Errorf("total wall = %v, want 4", b.WallSeconds)
	}
}

// TestWriteBundleCrashMidWriteKeepsOldBundle simulates a process
// killed partway through a bundle rewrite: the previously published
// bundle must survive untouched and no staging residue may remain —
// the cache treats a bundle directory's presence as validity.
func TestWriteBundleCrashMidWriteKeepsOldBundle(t *testing.T) {
	dir := t.TempDir()
	old := Bundle{Table: Table{ID: "EX", Header: []string{"h"}, Rows: [][]string{{"old"}}}}
	if err := WriteBundle(dir, old); err != nil {
		t.Fatal(err)
	}
	oldTable := readFile(t, filepath.Join(dir, "EX", "table.json"))

	writeFileHook = func(path string) error {
		if filepath.Base(path) == "runs.json" {
			return os.ErrClosed // stand-in for the crash
		}
		return nil
	}
	defer func() { writeFileHook = nil }()

	next := Bundle{Table: Table{ID: "EX", Header: []string{"h"}, Rows: [][]string{{"new"}}}}
	if err := WriteBundle(dir, next); err == nil {
		t.Fatal("interrupted write must report its error")
	}
	if got := readFile(t, filepath.Join(dir, "EX", "table.json")); got != oldTable {
		t.Errorf("published bundle mutated by a failed rewrite:\n%s", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Name() != "EX" {
			t.Errorf("staging residue left behind: %s", ent.Name())
		}
	}
}

// A checkpoint whose rename fails must not strand its temp file next
// to the (still intact) previous checkpoint. Running as root makes
// permission-based failures a no-op, so the rename is forced to fail
// by making the destination an existing non-empty directory.
func TestWriteCampaignRenameFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "campaign.json")
	if err := os.MkdirAll(filepath.Join(dest, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := WriteCampaign(dest, Campaign{Experiment: "E1", Seeds: []int64{1}})
	if err == nil {
		t.Fatal("rename onto a non-empty directory must fail")
	}
	if _, statErr := os.Stat(dest + ".tmp"); !os.IsNotExist(statErr) {
		t.Errorf("temp file stranded after rename failure: %v", statErr)
	}
}

func TestWriteCampaignWriteFailureRemovesTemp(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "missing-parent", "campaign.json")
	if err := WriteCampaign(dest, Campaign{Experiment: "E1", Seeds: []int64{1}}); err == nil {
		t.Fatal("write into a missing directory must fail")
	}
	if _, statErr := os.Stat(dest + ".tmp"); !os.IsNotExist(statErr) {
		t.Errorf("temp file stranded after write failure: %v", statErr)
	}
}
