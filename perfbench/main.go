// Command perfbench is the repository benchmark. It drives four fixed-work
// workloads through the entry points users call (streaming campaigns, the
// tick engine, the coopmrmd HTTP API), checks their outputs, and prints
// end-to-end metrics or, traced, per-layer metrics. README.md in this
// directory documents the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload campaign-mrm --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

var workloads = []workload{
	{name: "campaign-mrm", rate: 10, round: 40, open: openMRM},
	{name: "campaign-turnover", rate: 9000, round: turnoverPlan, open: openTurnover},
	{name: "fleet-incident", rate: 200, round: fleetTicks, open: openFleet},
	{name: "serve-mixed", rate: 200, round: 1000, open: openServe},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mib", "MiB"},
}

// perLayer are the metrics a traced run prints. A layer a workload
// bypasses reads 0.
var perLayer = []metricDef{
	{"sim.pre_ms", "ms"},
	{"sim.entities_ms", "ms"},
	{"sim.post_ms", "ms"},
	{"sim.pre_share", "share"},
	{"sim.entities_share", "share"},
	{"sim.post_share", "share"},
	{"scenario.acquire_ms", "ms"},
	{"sim.onset_tick_ms", "ms"},
	{"sim.warmup_ms", "ms"},
	{"coopmrm.fold_ms", "ms"},
	{"artifact.checkpoint_ms", "ms"},
	{"artifact.checkpoint_bytes", "B"},
	{"server.submit_ms", "ms"},
	{"server.wait_ms", "ms"},
	{"server.artifact_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"artifact.bundle_bytes", "B"},
	{"sim.ticks", "1/op"},
	{"sim.events", "1/op"},
	{"comm.sent", "1/op"},
	{"comm.dropped", "1/op"},
	{"traj.manoeuvres", "1/op"},
	{"core.replans", "1/op"},
	{"world.route_cache_hit_ratio", "ratio"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.mallocs_per_op", "1/op"},
	{"runtime.gc_cycles", "count"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead", "share"},
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 20, "run length; fixes the op count through the workload's nominal rate")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	selftest := fs.Bool("selftest", false, "run every workload for a few ops, traced and untraced, and check the output")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	// One worker: the engine, the campaign fold, the HTTP server and the
	// GC share one P, so a run's speed does not depend on what the
	// host's other CPU is doing.
	runtime.GOMAXPROCS(1)
	work := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)

	if *selftest {
		if err := selfTest(work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			return 1
		}
		fmt.Println("perfbench selftest: ok")
		return 0
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	w := workloads[i]
	res, err := measure(w, *seed, w.rounds(*seconds), w.round, *trace == 1, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print()
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
	context           map[string]any
	problems          []string
}

// measure runs rounds rounds of ops ops of w. Traced, it makes the same
// rounds untraced and then traced, and prints per-layer metrics plus the
// difference.
func measure(w workload, seed int64, rounds, ops int, traced bool, work string) (result, error) {
	res := result{context: map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"rounds":     rounds,
		"ops":        rounds * ops,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"traced":     traced,
	}}
	in := runIn{seed: seed, rounds: rounds, ops: ops, dir: passDir(work, 1)}
	plain, err := runPass(w, in, nil)
	if err != nil {
		return res, err
	}
	res.attempted, res.failed = plain.ops, plain.failed
	res.check(plain, "untraced")
	res.context["digest"] = plain.digest
	res.context["gc_cycles"] = plain.gcs
	res.context["heap_live_mib_at_start"] = float64(plain.heapLive) / (1 << 20)
	res.context["steal_share"] = plain.cpu.stealShare()
	res.context["wall_s"] = plain.wall().Seconds()
	var setups, rates, rss []float64
	for _, r := range plain.rounds {
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.ok)/r.wall.Seconds())
		rss = append(rss, r.rss)
	}
	res.context["round_setup_s"] = setups
	res.context["round_ops_per_s"] = rates
	res.context["round_rss_mib"] = rss
	if !traced {
		res.metrics = endToEndMetrics(plain)
		res.correct = len(res.problems) == 0
		return res, nil
	}

	in.dir = passDir(work, 2)
	tr := newTracer(6*rounds*ops + 4096*rounds)
	tp, err := runPass(w, in, tr)
	if err != nil {
		return res, err
	}
	res.attempted += tp.ops
	res.failed += tp.failed
	res.check(tp, "traced")
	if tp.digest != plain.digest {
		res.problems = append(res.problems, "traced digest differs from untraced: the trace perturbed the run")
	}
	if tp.counts != plain.counts {
		res.problems = append(res.problems, "traced work counts differ from untraced")
	}
	res.context["traced_digest"] = tp.digest
	res.context["traced_steal_share"] = tp.cpu.stealShare()
	res.metrics = perLayerMetrics(plain, tp, tr)
	file := filepath.Join(".bench_build", "perfbench", "trace", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
	if err := tr.write(file); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	res.context["trace_file"] = file
	res.context["spans"] = len(tr.spans)
	res.correct = len(res.problems) == 0
	return res, nil
}

func (r *result) check(p passOut, label string) {
	if p.checkErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", label, p.checkErr))
	}
	if p.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d of %d ops failed", label, p.failed, p.ops))
	}
}

// endToEndMetrics: the op rate is over all timed ops; op-time
// percentiles and peaks are means over the rounds of each round's figure,
// set-up time the median round.
//
// Means, not medians, because the host this was built on switches
// between a fast and a slow state every few seconds: a median over rounds
// then jumps from one state's value to the other's as the mix crosses one
// half, where a mean moves with the mix.
func endToEndMetrics(p passOut) metricSet {
	var m metricSet
	var p50, p95, setups, rss []float64
	for _, r := range p.rounds {
		lat := sortedCopy(p.lat[r.first : r.first+r.n])
		p50 = append(p50, ms(quantile(lat, 0.50)))
		p95 = append(p95, ms(quantile(lat, 0.95)))
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.rss)
	}
	m.set("ops_per_s", "1/s", p.opsPerSec())
	m.set("op_p50_ms", "ms", mean(p50))
	m.set("op_p95_ms", "ms", mean(p95))
	m.set("setup_s", "s", median(setups))
	m.set("max_rss_mib", "MiB", mean(rss))
	return m
}

// perLayerMetrics reads the layer spans of the traced pass tp; runtime
// figures come from the untraced pass, which the spans cannot inflate.
func perLayerMetrics(plain, tp passOut, tr *tracer) metricSet {
	var m metricSet
	for _, d := range perLayer {
		m.set(d.name, d.unit, 0)
	}
	ph := tr.stat(spanRun, true)
	if ph.ticks == 0 {
		ph = tr.stat(spanTick, true)
	}
	if ph.ticks > 0 {
		n := float64(ph.ticks)
		m.set("sim.pre_ms", "ms", ms(ph.pre)/n)
		m.set("sim.entities_ms", "ms", ms(ph.ents)/n)
		m.set("sim.post_ms", "ms", ms(ph.post)/n)
		m.set("sim.pre_share", "share", float64(ph.pre)/float64(ph.phase))
		m.set("sim.entities_share", "share", float64(ph.ents)/float64(ph.phase))
		m.set("sim.post_share", "share", float64(ph.post)/float64(ph.phase))
	}
	acq := tr.stat(spanAcquire, true)
	if acq.n == 0 {
		acq = tr.stat(spanAcquire, false) // fleet-incident builds its rig in set-up only
	}
	m.set("scenario.acquire_ms", "ms", acq.meanMs())

	ops := float64(tp.ops)
	c := tp.counts
	m.set("sim.ticks", "1/op", float64(c.ticks)/ops)
	m.set("sim.events", "1/op", float64(c.events)/ops)
	m.set("comm.sent", "1/op", float64(c.sent)/ops)
	m.set("comm.dropped", "1/op", float64(c.dropped)/ops)
	m.set("traj.manoeuvres", "1/op", float64(c.manoeuvres)/ops)
	m.set("core.replans", "1/op", float64(c.replans)/ops)
	if q := c.routeHits + c.routeMisses; q > 0 {
		m.set("world.route_cache_hit_ratio", "ratio", float64(c.routeHits)/float64(q))
	}
	m.set("runtime.alloc_bytes_per_op", "B/op", float64(plain.alloc)/ops)
	m.set("runtime.mallocs_per_op", "1/op", float64(plain.mallocs)/ops)
	m.set("runtime.gc_cycles", "count", float64(plain.gcs))
	m.set("trace.untraced_ops_per_s", "1/s", plain.opsPerSec())
	m.set("trace.traced_ops_per_s", "1/s", tp.opsPerSec())
	m.set("trace.overhead", "share", plain.opsPerSec()/tp.opsPerSec()-1)
	m.merge(tp.layers)
	return m
}

// print writes the context line, a readable summary on stderr, and the
// result object as the last line of stdout.
func (r result) print() {
	r.context["problems"] = r.problems
	ctx, _ := json.Marshal(map[string]any{"context": r.context})
	fmt.Println(string(ctx))
	for _, n := range r.metrics.names {
		v := r.metrics.vals[n]
		fmt.Fprintf(os.Stderr, "%-30s %14.6g %s\n", n, v.value, v.unit)
	}
	fmt.Fprintf(os.Stderr, "%-30s %14d\n%-30s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	fmt.Printf("{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
		r.correct, r.attempted, r.failed, r.metrics.json())
}

// selfTestOps are a few ops per round: enough for turnover to write
// periodic checkpoints and for serve-mixed to submit cold jobs.
var selfTestOps = map[string]int{
	"campaign-mrm":      2,
	"campaign-turnover": 2500,
	"fleet-incident":    10,
	"serve-mixed":       20,
}

// selfTest runs every workload briefly, untraced and traced, and checks
// that every named metric appears with its unit, no op failed and the
// digests agree; then that the E19 and E20 cell mirrors fold to what
// RunE19 and RunE20 report, and that BENCHMARK.json, when present, names the metrics printed here.
func selfTest(work string) error {
	var errs []error
	for _, w := range workloads {
		var digests []string
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 7, 2, selfTestOps[w.name], traced, filepath.Join(work, w.name))
			if err != nil {
				errs = append(errs, err)
				continue
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			label := fmt.Sprintf("%s traced=%t", w.name, traced)
			if err := sameMetrics(res.metrics, want); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", label, err))
			}
			if !res.correct || res.failed != 0 {
				errs = append(errs, fmt.Errorf("%s: correct=%t failed=%d %v", label, res.correct, res.failed, res.problems))
			}
			digests = append(digests, res.context["digest"].(string))
			fmt.Fprintf(os.Stderr, "selftest %-32s ok, digest %.16s\n", label, digests[len(digests)-1])
		}
		if len(digests) == 2 && digests[0] != digests[1] {
			errs = append(errs, fmt.Errorf("%s: digest differs between runs: %s vs %s", w.name, digests[0], digests[1]))
		}
	}
	if err := checkE19Mirror(filepath.Join(work, "mirror")); err != nil {
		errs = append(errs, err)
	}
	if err := checkE20Mirror(filepath.Join(work, "mirror")); err != nil {
		errs = append(errs, err)
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func sameMetrics(m metricSet, want []metricDef) error {
	if len(m.names) != len(want) {
		return fmt.Errorf("printed %d metrics, want %d", len(m.names), len(want))
	}
	for _, d := range want {
		v, ok := m.vals[d.name]
		if !ok || v.unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	return nil
}

// checkBenchmarkJSON compares the metric lists of a BENCHMARK.json, if
// there is one, with the metrics this program prints.
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ", ") != workloadNames() {
		return fmt.Errorf("%s names workloads %v, the program runs %s", path, got, workloadNames())
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(list.json) != len(list.defs) {
			return fmt.Errorf("%s lists %d metrics where the program prints %d", path, len(list.json), len(list.defs))
		}
		for i, d := range list.defs {
			if list.json[i].Name != d.name || list.json[i].Unit != d.unit {
				return fmt.Errorf("%s metric %d is %s (%s), the program prints %s (%s)",
					path, i, list.json[i].Name, list.json[i].Unit, d.name, d.unit)
			}
		}
	}
	return nil
}
