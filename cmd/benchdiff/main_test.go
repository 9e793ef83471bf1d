package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/artifact"
)

// writeBench writes a bench/v1 file with the given per-experiment
// seconds and returns its path.
func writeBench(t *testing.T, name string, wall map[string]float64) string {
	t.Helper()
	b := artifact.NewBench(1, 1, 1, true)
	// Stable order so the rendered diff is deterministic in tests.
	for _, id := range []string{"E1", "E2", "E3"} {
		if s, ok := wall[id]; ok {
			b.Add(id, time.Duration(s*float64(time.Second)), 1, 1)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := artifact.WriteBench(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffNoRegression(t *testing.T) {
	old := writeBench(t, "old.json", map[string]float64{"E1": 1.0, "E2": 2.0})
	new_ := writeBench(t, "new.json", map[string]float64{"E1": 0.5, "E2": 2.1})
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, new_}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code = %d, err = %v\n%s", code, err, out.String())
	}
	for _, want := range []string{"E1", "E2", "total", "-50.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	old := writeBench(t, "old.json", map[string]float64{"E1": 1.0, "E2": 2.0})
	new_ := writeBench(t, "new.json", map[string]float64{"E1": 1.6, "E2": 2.0})
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, new_}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("code = %d, want 1 (E1 +60%% beyond 25%% threshold)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output missing REGRESSION marker:\n%s", out.String())
	}
}

// A regression on a sub-MinSeconds experiment is noise, not a
// verdict; the total still gates.
func TestDiffIgnoresTinyExperiments(t *testing.T) {
	old := writeBench(t, "old.json", map[string]float64{"E1": 0.001, "E2": 2.0})
	new_ := writeBench(t, "new.json", map[string]float64{"E1": 0.010, "E2": 2.0})
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, new_}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("code = %d, want 0 (1ms experiment noise must not gate)\n%s", code, out.String())
	}
}

func TestDiffAddedAndRemovedExperiments(t *testing.T) {
	old := writeBench(t, "old.json", map[string]float64{"E1": 1.0, "E2": 1.0})
	new_ := writeBench(t, "new.json", map[string]float64{"E1": 1.0, "E3": 1.0})
	var out bytes.Buffer
	code, err := run([]string{old, new_}, &out)
	if err != nil || code != 0 {
		t.Fatalf("code = %d, err = %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "new experiment") || !strings.Contains(out.String(), "removed") {
		t.Errorf("output missing added/removed markers:\n%s", out.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	old := writeBench(t, "old.json", map[string]float64{"E1": 1.0})
	if code, err := run([]string{old}, &bytes.Buffer{}); err == nil || code != 2 {
		t.Errorf("one arg: code = %d, err = %v, want usage error", code, err)
	}
	if code, err := run([]string{old, filepath.Join(t.TempDir(), "missing.json")}, &bytes.Buffer{}); err == nil || code != 2 {
		t.Errorf("missing file: code = %d, err = %v, want I/O error", code, err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"something/else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := run([]string{old, bad}, &bytes.Buffer{}); err == nil || code != 2 {
		t.Errorf("wrong schema: code = %d, err = %v, want schema error", code, err)
	}
	if code, err := run([]string{"-threshold", "-1", old, old}, &bytes.Buffer{}); err == nil || code != 2 {
		t.Errorf("negative threshold: code = %d, err = %v, want usage error", code, err)
	}
}

// writeBenchStats writes a bench/v1 file whose entries may carry
// per-seed wall statistics (sd in seconds, sample count).
func writeBenchStats(t *testing.T, name string,
	entries []artifact.BenchExperiment) string {
	t.Helper()
	b := artifact.NewBench(1, 1, 1, true)
	for _, e := range entries {
		b.AddStats(e.ID,
			time.Duration(e.WallSeconds*float64(time.Second)),
			time.Duration(e.WallSdSeconds*float64(time.Second)),
			e.WallSamples, e.Runs, e.Rows)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := artifact.WriteBench(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

// A baseline entry with zero recorded wall used to leave frac at 0 and
// pass silently no matter how slow the new run was.
func TestDiffFlagsZeroWallBaseline(t *testing.T) {
	old := writeBench(t, "old.json", map[string]float64{"E1": 0.0, "E2": 2.0})
	new_ := writeBench(t, "new.json", map[string]float64{"E1": 5.0, "E2": 2.0})
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, new_}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "REGRESSION (baseline 0s)") {
		t.Errorf("code = %d, want 1 with baseline-0s marker\n%s", code, out.String())
	}
	// A zero-wall baseline against a sub-noise-floor new wall stays
	// unflagged: nothing measurable happened on either side.
	tiny := writeBench(t, "tiny.json", map[string]float64{"E1": 0.01, "E2": 2.0})
	out.Reset()
	if code, err = run([]string{"-threshold", "0.25", old, tiny}, &out); err != nil || code != 0 {
		t.Errorf("tiny new wall: code = %d, err = %v\n%s", code, err, out.String())
	}
}

// When the baseline carries per-seed variance, the verdict is the 95%
// CI bound on the difference of two campaign totals, not the fixed
// threshold — in both directions.
func TestDiffVarianceAwareVerdict(t *testing.T) {
	// n=16 seeds, sd=0.05 s ⇒ bound = 1.96·0.05·√32 ≈ 0.554 s.
	old := writeBenchStats(t, "old.json", []artifact.BenchExperiment{
		{ID: "E1", WallSeconds: 1.0, WallSdSeconds: 0.05, WallSamples: 16, Runs: 16, Rows: 3},
	})

	// +40% (beyond the 25% fixed threshold) but within the CI bound:
	// must NOT flag.
	// The total row still gates on its own fixed threshold, so lift it
	// out of the way with -threshold 10: only the CI verdict can flag.
	within := writeBench(t, "within.json", map[string]float64{"E1": 1.4})
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "10", old, within}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || strings.Contains(out.String(), "REGRESSION (> 95% CI") {
		t.Errorf("within-CI slowdown must not flag: code = %d\n%s", code, out.String())
	}

	// +0.7 s, beyond the CI bound: must flag with the CI marker.
	beyond := writeBench(t, "beyond.json", map[string]float64{"E1": 1.7})
	out.Reset()
	if code, err = run([]string{"-threshold", "10", old, beyond}, &out); err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "95% CI") {
		t.Errorf("beyond-CI slowdown: code = %d, want 1 with CI marker\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "n=16") {
		t.Errorf("CI marker should cite the sample count:\n%s", out.String())
	}
}

// writeBenchServe writes a serve-only bench/v1 report (the
// BENCH_serve.json shape): no experiment entries, walls carried by the
// serve rows and summed into the total.
func writeBenchServe(t *testing.T, name string, rows []artifact.ServeBench) string {
	t.Helper()
	b := artifact.NewBench(1, 1, 1, true)
	for _, r := range rows {
		b.Serve = append(b.Serve, r)
		b.WallSeconds += r.WallSeconds
	}
	path := filepath.Join(t.TempDir(), name)
	if err := artifact.WriteBench(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

// Serve rows gate on jobs/sec drops; a legitimate serve baseline —
// experiments absent, total wall zero in old reports predating the
// wall fix — must not trip the zero-wall guard.
func TestDiffServeRates(t *testing.T) {
	mk := func(name string, coldRate float64, wall float64) string {
		return writeBenchServe(t, name, []artifact.ServeBench{
			{ID: "serve/cold", Clients: 8, Jobs: 32, WallSeconds: wall, JobsPerSec: coldRate},
			{ID: "serve/cached", Clients: 8, Jobs: 32, WallSeconds: 0.01, JobsPerSec: 2900},
		})
	}
	old := mk("old.json", 50, 0.6)
	same := mk("same.json", 48, 0.6)
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, same}, &out)
	if err != nil || code != 0 {
		t.Fatalf("near-identical serve rates flagged: code = %d, err = %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "serve/cold") {
		t.Errorf("output missing serve rows:\n%s", out.String())
	}

	slow := mk("slow.json", 30, 1.0)
	out.Reset()
	if code, err = run([]string{"-threshold", "0.25", old, slow}, &out); err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "REGRESSION (> 25% slower)") {
		t.Errorf("40%% jobs/sec drop: code = %d, want 1 with slower marker\n%s", code, out.String())
	}
}

// A serve baseline whose report-level wall is zero (the shape shipped
// before selfbench summed phase walls) must not be flagged by the
// zero-wall total guard — it has no experiment entries to back a total.
func TestDiffServeOnlyZeroWallBaselinePasses(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	b := artifact.NewBench(0, 1, 1, true)
	b.Serve = []artifact.ServeBench{{ID: "serve/cold", Clients: 8, Jobs: 32, WallSeconds: 0.6, JobsPerSec: 50}}
	// WallSeconds deliberately left 0: the legacy serve-report shape.
	if err := artifact.WriteBench(old, b); err != nil {
		t.Fatal(err)
	}
	new_ := writeBenchServe(t, "new.json", []artifact.ServeBench{
		{ID: "serve/cold", Clients: 8, Jobs: 32, WallSeconds: 0.6, JobsPerSec: 49},
	})
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, new_}, &out)
	if err != nil || code != 0 {
		t.Fatalf("legacy zero-wall serve baseline flagged: code = %d, err = %v\n%s", code, err, out.String())
	}
}

// Campaign detail rows (seeds/sec) gate like serve rows: a throughput
// drop beyond the threshold regresses, sub-noise-floor walls do not.
func TestDiffCampaignSeedsPerSec(t *testing.T) {
	mk := func(name string, warmRate float64) string {
		b := artifact.NewBench(1, 1, 1, true)
		b.Add("E20", 3*time.Second, 2, 2)
		b.Details = []artifact.BenchDetail{
			{ID: "E18/pairs=500", Ticks: 1000, WallSeconds: 1.0, TicksPerSec: 1000},
			{ID: "E20/fresh", Seeds: 10000, WallSeconds: 2.0, SeedsPerSec: 5000},
			{ID: "E20/warm", Seeds: 10000, WallSeconds: 1.0, SeedsPerSec: warmRate},
		}
		path := filepath.Join(t.TempDir(), name)
		if err := artifact.WriteBench(path, b); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := mk("old.json", 12000)
	ok_ := mk("ok.json", 11000)
	var out bytes.Buffer
	code, err := run([]string{"-threshold", "0.25", old, ok_}, &out)
	if err != nil || code != 0 {
		t.Fatalf("small seeds/sec wobble flagged: code = %d, err = %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "E20/warm") {
		t.Errorf("output missing campaign rows:\n%s", out.String())
	}
	if strings.Contains(out.String(), "E18/pairs=500") {
		t.Errorf("tick-throughput details must stay out of the campaign section:\n%s", out.String())
	}

	slow := mk("slow.json", 6000)
	out.Reset()
	if code, err = run([]string{"-threshold", "0.25", old, slow}, &out); err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "REGRESSION (> 25% slower)") {
		t.Errorf("50%% seeds/sec drop: code = %d, want 1 with slower marker\n%s", code, out.String())
	}
}

// duplicateBenches are bench/v1 reports that repeat a row ID within one
// section, the two rows differing. diff keys rows by ID, so it would
// pair them crosswise: the experiments case diffed against itself
// would flag a regression.
var duplicateBenches = map[string]string{
	"experiments": `{"schema":"coopmrm/bench/v1","wall_seconds":3,"experiments":[
		{"id":"E1","wall_seconds":2},{"id":"E1","wall_seconds":1}]}`,
	"serve": `{"schema":"coopmrm/bench/v1","serve":[
		{"id":"serve/cold","wall_seconds":1,"jobs_per_sec":1},{"id":"serve/cold","wall_seconds":1,"jobs_per_sec":2}]}`,
	"details": `{"schema":"coopmrm/bench/v1","details":[
		{"id":"E20/warm","wall_seconds":1,"seeds_per_sec":1},{"id":"E20/warm","wall_seconds":1,"seeds_per_sec":2}]}`,
}

func TestRejectsDuplicateIDs(t *testing.T) {
	for section, js := range duplicateBenches {
		path := filepath.Join(t.TempDir(), "dup.json")
		if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
			t.Fatal(err)
		}
		code, err := run([]string{path, path}, &bytes.Buffer{})
		if code != 2 || err == nil || !strings.Contains(err.Error(), section+": duplicate id") {
			t.Errorf("%s: code = %d, err = %v, want a duplicate-id error", section, code, err)
		}
	}
}

// FuzzReadBench feeds arbitrary bytes to the bench/v1 parser. A report
// it accepts must diff against itself without panicking and without
// flagging a regression.
func FuzzReadBench(f *testing.F) {
	for _, name := range []string{"BENCH_quick.json", "BENCH_serve.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, section := range []string{"experiments", "serve", "details"} {
		f.Add([]byte(duplicateBenches[section]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := parseBench(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if code := diff(&out, b, b, 0.25); code != 0 {
			t.Fatalf("report diffed against itself exits %d:\n%s", code, out.String())
		}
	})
}
