// Command benchdiff compares two coopmrm/bench/v1 reports — the
// bench.json written by `experiments -out` (the committed quick
// baseline lives at BENCH_quick.json) — and prints the per-experiment
// and total wall-clock deltas. It is the repo's perf-regression gate:
// CI runs the quick suite, diffs it against the committed baseline,
// and warns (non-blocking) when the slowdown exceeds the threshold.
//
// Usage:
//
//	benchdiff [-threshold 0.25] OLD.json NEW.json
//
// The exit status encodes the verdict so callers can gate on it:
//
//	0 — no experiment (and not the total) slowed down by more than
//	    the threshold fraction
//	1 — at least one regression beyond the threshold
//	2 — usage or I/O error
//
// -threshold is the tolerated slowdown as a fraction of the old wall
// time (0.25 = 25% slower). Wall clocks are noisy — especially on
// shared CI runners — so thresholds below ~0.25 will cry wolf;
// experiments whose wall time is under MinSeconds on either side are
// excluded from the verdict (their relative noise is unbounded — a
// 60 ms experiment swings ±50% between back-to-back runs on a busy
// machine) but their deltas are still printed.
//
// Variance-aware verdict: when the OLD report carries per-seed wall
// statistics (wall_sd_seconds/wall_samples, written by seed-sweep
// campaigns), the fixed threshold is replaced for that experiment by a
// 95% confidence bound on the difference of two campaign totals —
// regression iff new - old > 1.96 · sd · √(2n). Statistical evidence
// beats a one-size-fits-all fraction wherever it exists.
//
// A baseline entry with zero recorded wall can never produce a finite
// slowdown fraction; when the new wall is above the noise floor it is
// flagged explicitly instead of silently passing. That guard applies
// to experiment entries and to totals backed by experiment entries —
// a serve-only report (BENCH_serve.json) legitimately keeps its wall
// in the serve rows, so it is compared through them instead of being
// flagged for an "empty" experiment total.
//
// Beyond experiment walls the diff also gates throughput rows, where
// higher is better and a *drop* beyond the threshold is the
// regression: serve rows (jobs/sec, from coopmrmd -selfbench) and
// campaign detail rows (seeds/sec, the E20 warm-rig claim). Rows
// whose wall is under MinSeconds on either side are printed but never
// gate, for the same noise-floor reason as experiments.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"coopmrm/internal/artifact"
)

// MinSeconds is the wall-time floor below which a per-experiment
// delta does not count towards the verdict: a 60 ms experiment that
// doubles is scheduler noise, not a regression. The total always
// gates regardless.
const MinSeconds = 0.1

// zCI is the normal 95% critical value for the variance-aware verdict.
const zCI = 1.96

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.25,
		"tolerated slowdown as a fraction of old wall time (0.25 = 25% slower)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 2 {
		return 2, fmt.Errorf("usage: benchdiff [-threshold F] OLD.json NEW.json")
	}
	if *threshold < 0 {
		return 2, fmt.Errorf("threshold %v must be >= 0", *threshold)
	}
	old, err := readBench(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	new_, err := readBench(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	return diff(stdout, old, new_, *threshold), nil
}

// readBench loads and checks one report.
func readBench(path string) (artifact.Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return artifact.Bench{}, err
	}
	b, err := parseBench(data)
	if err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// parseBench decodes one report and checks its schema. Row IDs must be
// unique within each section: diff keys rows by ID, so a repeated ID
// would pair one row with another and report a change that did not
// happen.
func parseBench(data []byte) (artifact.Bench, error) {
	var b artifact.Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return b, err
	}
	if b.Schema != artifact.SchemaBench {
		return b, fmt.Errorf("schema %q, want %q", b.Schema, artifact.SchemaBench)
	}
	return b, errors.Join(
		uniqueIDs("experiments", b.Experiments, func(r artifact.BenchExperiment) string { return r.ID }),
		uniqueIDs("serve", b.Serve, func(r artifact.ServeBench) string { return r.ID }),
		uniqueIDs("details", b.Details, func(r artifact.BenchDetail) string { return r.ID }),
	)
}

// uniqueIDs reports the first ID that repeats within one section.
func uniqueIDs[T any](section string, rows []T, id func(T) string) error {
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		if seen[id(r)] {
			return fmt.Errorf("%s: duplicate id %q", section, id(r))
		}
		seen[id(r)] = true
	}
	return nil
}

// diff renders the comparison and returns the verdict exit code.
func diff(w io.Writer, old, new_ artifact.Bench, threshold float64) int {
	oldBy := make(map[string]artifact.BenchExperiment, len(old.Experiments))
	for _, e := range old.Experiments {
		oldBy[e.ID] = e
	}
	fmt.Fprintf(w, "%-6s %12s %12s %12s %9s\n", "id", "old (s)", "new (s)", "delta (s)", "delta")
	regressions := 0
	seen := make(map[string]bool, len(new_.Experiments))
	for _, ne := range new_.Experiments {
		seen[ne.ID] = true
		oe, ok := oldBy[ne.ID]
		if !ok {
			fmt.Fprintf(w, "%-6s %12s %12.4f %12s %9s  (new experiment)\n", ne.ID, "-", ne.WallSeconds, "-", "-")
			continue
		}
		d := ne.WallSeconds - oe.WallSeconds
		frac := 0.0
		switch {
		case oe.WallSeconds > 0:
			frac = d / oe.WallSeconds
		case ne.WallSeconds > 0:
			// A zero-wall baseline admits no finite fraction — leaving
			// frac at 0 here used to make such regressions unflaggable.
			frac = math.Inf(1)
		}
		marker := ""
		switch {
		case oe.WallSdSeconds > 0 && oe.WallSamples >= 2:
			// Variance-aware verdict: the baseline is a campaign total
			// over n per-seed samples with sd s, so the difference of
			// two such totals has sd s·√(2n); flag beyond the 95%
			// bound. The noise floor still applies.
			bound := zCI * oe.WallSdSeconds * math.Sqrt(2*float64(oe.WallSamples))
			if d > bound && oe.WallSeconds >= MinSeconds && ne.WallSeconds >= MinSeconds {
				marker = fmt.Sprintf("  REGRESSION (> 95%% CI +%.4fs, n=%d)", bound, oe.WallSamples)
				regressions++
			}
		case oe.WallSeconds == 0 && ne.WallSeconds >= MinSeconds:
			marker = "  REGRESSION (baseline 0s)"
			regressions++
		case threshold > 0 && frac > threshold && oe.WallSeconds >= MinSeconds && ne.WallSeconds >= MinSeconds:
			marker = fmt.Sprintf("  REGRESSION (> %+.0f%%)", threshold*100)
			regressions++
		}
		fmt.Fprintf(w, "%-6s %12.4f %12.4f %+12.4f %+8.1f%%%s\n",
			ne.ID, oe.WallSeconds, ne.WallSeconds, d, frac*100, marker)
	}
	for _, oe := range old.Experiments {
		if !seen[oe.ID] {
			fmt.Fprintf(w, "%-6s %12.4f %12s %12s %9s  (removed)\n", oe.ID, oe.WallSeconds, "-", "-", "-")
		}
	}
	regressions += diffRates(w, "serve (jobs/sec; drop beyond threshold regresses)",
		serveRates(old.Serve), serveRates(new_.Serve), threshold)
	regressions += diffRates(w, "campaign (seeds/sec; drop beyond threshold regresses)",
		campaignRates(old.Details), campaignRates(new_.Details), threshold)
	totalDelta := new_.WallSeconds - old.WallSeconds
	totalFrac := 0.0
	if old.WallSeconds > 0 {
		totalFrac = totalDelta / old.WallSeconds
	}
	marker := ""
	switch {
	case threshold > 0 && totalFrac > threshold:
		marker = fmt.Sprintf("  REGRESSION (> %+.0f%%)", threshold*100)
		regressions++
	case old.WallSeconds == 0 && new_.WallSeconds >= MinSeconds && len(old.Experiments) > 0:
		// Same unflaggable-fraction hole as per-experiment zero walls —
		// but only when the baseline claims experiment entries. A
		// serve-only baseline keeps its wall in the serve rows (gated
		// above), so a zero experiment total there is legitimate.
		marker = "  REGRESSION (baseline 0s)"
		regressions++
	}
	fmt.Fprintf(w, "%-6s %12.4f %12.4f %+12.4f %+8.1f%%%s\n",
		"total", old.WallSeconds, new_.WallSeconds, totalDelta, totalFrac*100, marker)
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s) beyond the %.0f%% threshold / 95%% CI\n", regressions, threshold*100)
		return 1
	}
	return 0
}

// rateRow is one higher-is-better throughput measurement: a serve
// phase (jobs/sec) or a campaign detail (seeds/sec), with the wall
// that produced it for noise-floor gating.
type rateRow struct {
	id   string
	rate float64
	wall float64
}

func serveRates(rows []artifact.ServeBench) []rateRow {
	out := make([]rateRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, rateRow{id: r.ID, rate: r.JobsPerSec, wall: r.WallSeconds})
	}
	return out
}

// campaignRates keeps the details rows that carry a seed-cycling rate
// (campaign arms, e.g. "E20/warm"); per-rig tick-throughput details
// (E18) stay informational.
func campaignRates(rows []artifact.BenchDetail) []rateRow {
	var out []rateRow
	for _, r := range rows {
		if r.SeedsPerSec > 0 {
			out = append(out, rateRow{id: r.ID, rate: r.SeedsPerSec, wall: r.WallSeconds})
		}
	}
	return out
}

// diffRates renders a throughput section and counts its regressions: a
// rate *drop* beyond the threshold fraction flags, walls under
// MinSeconds on either side only print. Sections absent from both
// reports render nothing.
func diffRates(w io.Writer, title string, old, new_ []rateRow, threshold float64) int {
	if len(old) == 0 && len(new_) == 0 {
		return 0
	}
	fmt.Fprintf(w, "%s\n", title)
	oldBy := make(map[string]rateRow, len(old))
	for _, r := range old {
		oldBy[r.id] = r
	}
	regressions := 0
	seen := make(map[string]bool, len(new_))
	for _, nr := range new_ {
		seen[nr.id] = true
		or, ok := oldBy[nr.id]
		if !ok {
			fmt.Fprintf(w, "%-24s %12s %12.1f %9s  (new measurement)\n", nr.id, "-", nr.rate, "-")
			continue
		}
		frac := 0.0
		if or.rate > 0 {
			frac = (nr.rate - or.rate) / or.rate
		}
		marker := ""
		if threshold > 0 && frac < -threshold && or.wall >= MinSeconds && nr.wall >= MinSeconds {
			marker = fmt.Sprintf("  REGRESSION (> %.0f%% slower)", threshold*100)
			regressions++
		}
		fmt.Fprintf(w, "%-24s %12.1f %12.1f %+8.1f%%%s\n", nr.id, or.rate, nr.rate, frac*100, marker)
	}
	for _, or := range old {
		if !seen[or.id] {
			fmt.Fprintf(w, "%-24s %12.1f %12s %9s  (removed)\n", or.id, or.rate, "-", "-")
		}
	}
	return regressions
}
