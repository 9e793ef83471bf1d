package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func output(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

// The CLI-level determinism guarantee: -parallel 8 is byte-identical
// to -parallel 1 across experiments, ablations, and output formats.
func TestParallelOutputByteIdentical(t *testing.T) {
	for _, tc := range [][]string{
		{"-quick"},
		{"-quick", "-ablations"},
		{"-quick", "-run", "E1,E3,A1", "-format", "csv"},
		{"-quick", "-run", "E5", "-format", "markdown"},
	} {
		serial := output(t, append([]string{"-parallel", "1"}, tc...)...)
		parallel := output(t, append([]string{"-parallel", "8"}, tc...)...)
		if serial != parallel {
			t.Errorf("args %v: parallel output differs from serial", tc)
		}
		if len(serial) == 0 {
			t.Errorf("args %v: no output", tc)
		}
	}
}

func TestSeedSweepOutput(t *testing.T) {
	serial := output(t, "-quick", "-run", "E1", "-seeds", "1..4", "-parallel", "1")
	parallel := output(t, "-quick", "-run", "E1", "-seeds", "1..4", "-parallel", "4")
	if serial != parallel {
		t.Error("seed sweep differs between worker counts")
	}
	if !strings.Contains(serial, "aggregated over 4 seeds") {
		t.Errorf("sweep note missing:\n%s", serial)
	}
}

func TestRunList(t *testing.T) {
	out := output(t, "-list")
	for _, id := range []string{"E1", "E15", "A1", "A5"} {
		if !strings.Contains(out, id+" ") {
			t.Errorf("-list missing %s", id)
		}
	}
}

func TestRunSingleQuick(t *testing.T) {
	if out := output(t, "-run", "E13", "-quick"); !strings.Contains(out, "E13") {
		t.Errorf("output = %q", out)
	}
}

func TestRunAblationByID(t *testing.T) {
	if out := output(t, "-run", "A4", "-quick"); !strings.Contains(out, "A4") {
		t.Errorf("output = %q", out)
	}
}

// readTree maps relative path -> file bytes for every file under dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// The artifact-level determinism guarantee: -out bundles are
// byte-identical between -parallel 1 and -parallel 8; only bench.json
// (wall-clock accounting) may differ.
func TestOutBundlesByteIdenticalAcrossWorkers(t *testing.T) {
	serialDir := t.TempDir()
	parallelDir := t.TempDir()
	output(t, "-quick", "-run", "E1,E2,E6", "-parallel", "1", "-out", serialDir)
	output(t, "-quick", "-run", "E1,E2,E6", "-parallel", "8", "-out", parallelDir)

	serial := readTree(t, serialDir)
	parallel := readTree(t, parallelDir)
	if len(serial) != len(parallel) {
		t.Fatalf("file sets differ: %d vs %d", len(serial), len(parallel))
	}
	bundles := 0
	for name, content := range serial {
		if filepath.Base(name) == "bench.json" {
			continue
		}
		bundles++
		if parallel[name] != content {
			t.Errorf("%s differs between -parallel 1 and -parallel 8", name)
		}
	}
	if bundles == 0 {
		t.Fatal("no bundle files written")
	}
}

// bench.json must exist, parse, and account for every selected
// experiment; the seed sweep variant threads the seed count through.
func TestOutWritesBench(t *testing.T) {
	dir := t.TempDir()
	out := output(t, "-quick", "-run", "E6", "-seeds", "1..2", "-parallel", "2", "-out", dir)
	if !strings.Contains(out, "bench.json") {
		t.Errorf("missing artifact confirmation line:\n%s", out)
	}
	var bench struct {
		Schema      string  `json:"schema"`
		Parallel    int     `json:"parallel"`
		Seeds       int     `json:"seeds"`
		Quick       bool    `json:"quick"`
		WallSeconds float64 `json:"wall_seconds"`
		Experiments []struct {
			ID   string `json:"id"`
			Runs int    `json:"runs"`
			Rows int    `json:"rows"`
		} `json:"experiments"`
	}
	data, err := os.ReadFile(filepath.Join(dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Schema != "coopmrm/bench/v1" || bench.Parallel != 2 ||
		bench.Seeds != 2 || !bench.Quick || bench.WallSeconds <= 0 {
		t.Errorf("bench header wrong: %+v", bench)
	}
	if len(bench.Experiments) != 1 || bench.Experiments[0].ID != "E6" ||
		bench.Experiments[0].Runs != 4 || bench.Experiments[0].Rows == 0 {
		t.Errorf("bench experiments wrong: %+v", bench.Experiments)
	}
	// The sweep prefixes run names with the seed.
	runs, err := os.ReadFile(filepath.Join(dir, "E6", "runs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(runs), `"seed=2/policy=baseline"`) {
		t.Errorf("seed-prefixed run names missing:\n%s", runs)
	}
}

// The profiling hooks produce non-empty files that the standard tools
// recognise (pprof files are gzipped protos, the exec trace has a
// magic header).
func TestProfilingFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	exec := filepath.Join(dir, "exec.trace")
	output(t, "-quick", "-run", "E1", "-cpuprofile", cpu, "-memprofile", mem, "-exectrace", exec)
	for _, path := range []string{cpu, mem, exec} {
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	trace, err := os.ReadFile(exec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(trace, []byte("go 1.")) {
		t.Errorf("exec trace header wrong: %q", trace[:min(16, len(trace))])
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E99"}, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-run", "E13", "-quick", "-format", "xml"}, &buf); err == nil {
		t.Error("unknown format should error")
	}
	if err := run([]string{"-seeds", "5..1"}, &buf); err == nil {
		t.Error("bad seed spec should error")
	}
}

// A seed sweep renders the campaign annotation: the note names the
// 95% CI half-width and numeric cells carry [n, ci].
func TestStreamOutput(t *testing.T) {
	out := output(t, "-quick", "-run", "E1", "-seeds", "1..4", "-parallel", "2")
	if !strings.Contains(out, "aggregated over 4 seeds") ||
		!strings.Contains(out, "95% CI half-width") {
		t.Errorf("campaign note missing:\n%s", out)
	}
	if !strings.Contains(out, "[n=4, ci=") && !strings.Contains(out, "±") {
		t.Errorf("no aggregated cells rendered:\n%s", out)
	}
}

// The full CLI-level kill-and-resume contract: a campaign aborted
// mid-flight by -abort-after resumes from its checkpoint and renders
// byte-identically to the uninterrupted run.
func TestStreamCheckpointResumeByteIdentical(t *testing.T) {
	uninterrupted := output(t, "-quick", "-run", "E1", "-seeds", "1..6", "-parallel", "2")

	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	var buf bytes.Buffer
	err := run([]string{"-quick", "-run", "E1", "-seeds", "1..6", "-parallel", "2",
		"-checkpoint", ckpt, "-checkpoint-every", "2", "-abort-after", "3"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "abort-after") {
		t.Fatalf("aborted campaign must surface the abort: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint survived the abort: %v", err)
	}

	resumed := output(t, "-quick", "-run", "E1", "-seeds", "1..6", "-parallel", "2",
		"-checkpoint", ckpt, "-checkpoint-every", "2", "-resume")
	if resumed != uninterrupted {
		t.Errorf("resumed output differs from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
			resumed, uninterrupted)
	}
}

// A campaign aborted past its capture prefix and resumed with -out
// writes the bundle an uninterrupted campaign writes, runs included:
// capture is a pass over the plan's first seeds after the fold, so it
// cannot depend on where the campaign was interrupted.
func TestSeedsOutResumeBundleByteIdentical(t *testing.T) {
	args := []string{"-quick", "-run", "E1", "-seeds", "1..12", "-parallel", "1"}
	fullDir := t.TempDir()
	output(t, append(args, "-out", fullDir)...)

	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	var buf bytes.Buffer
	if err := run(append(args, "-checkpoint", ckpt, "-checkpoint-every", "2",
		"-abort-after", "10"), &buf); err == nil {
		t.Fatal("aborted campaign must surface the abort")
	}
	partDir := t.TempDir()
	output(t, append(args, "-checkpoint", ckpt, "-checkpoint-every", "2", "-resume",
		"-out", partDir)...)

	full, part := readTree(t, fullDir), readTree(t, partDir)
	delete(full, "bench.json")
	delete(part, "bench.json")
	if len(full) != len(part) {
		t.Errorf("file sets differ: uninterrupted %d files, resumed %d", len(full), len(part))
	}
	for name, content := range full {
		if part[name] != content {
			t.Errorf("%s differs between the uninterrupted and the resumed campaign", name)
		}
	}
	if !strings.Contains(full[filepath.Join("E1", "runs.json")], `"seed=8/`) {
		t.Error("bundle lacks the eighth seed's runs")
	}
}

// A seed sweep's -out bundle carries the runs of its first seeds plus
// the per-seed wall statistics that feed the variance-aware bench
// gate.
func TestStreamOutWritesBenchStats(t *testing.T) {
	dir := t.TempDir()
	out := output(t, "-quick", "-run", "E6", "-seeds", "1..4", "-parallel", "2", "-out", dir)
	if !strings.Contains(out, "bench.json") {
		t.Errorf("missing artifact confirmation line:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Experiments []struct {
			ID            string  `json:"id"`
			WallSdSeconds float64 `json:"wall_sd_seconds"`
			WallSamples   int     `json:"wall_samples"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Experiments) != 1 || bench.Experiments[0].ID != "E6" ||
		bench.Experiments[0].WallSamples != 4 {
		t.Errorf("bench experiments wrong: %+v", bench.Experiments)
	}
	runs, err := os.ReadFile(filepath.Join(dir, "E6", "runs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(runs), `"seed=1/policy=baseline"`) {
		t.Errorf("seed-prefixed run names missing:\n%s", runs)
	}
}

func TestStreamFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		// -seeds always streams; the old switch is gone.
		{[]string{"-stream", "-quick", "-run", "E1", "-seeds", "1..2"}, "-stream"},
		{[]string{"-quick", "-run", "E1", "-checkpoint", "x.json"}, "-checkpoint requires -seeds"},
		{[]string{"-quick", "-run", "E1", "-checkpoint-every", "2"}, "-checkpoint-every requires -seeds"},
		{[]string{"-quick", "-run", "E1", "-resume"}, "-resume requires -seeds"},
		{[]string{"-quick", "-run", "E1", "-abort-after", "3"}, "-abort-after requires -seeds"},
		{[]string{"-quick", "-run", "E1,E2", "-seeds", "1..2", "-checkpoint", "x.json"},
			"select exactly one experiment"},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}
