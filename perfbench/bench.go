package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload: a fixed op sequence generated from
// the workload seed, driven through the repository's public entry points.
type workload struct {
	name string
	// rate and round fix the op count: a run of --seconds s makes
	// max(1, round(s*rate/round)) rounds of round ops each. The count is
	// fixed before anything runs, so every run of a seed times the same
	// ops whatever the machine's speed.
	rate  float64
	round int
	open  func(in runIn) (instance, error)
}

func (w workload) rounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*w.rate/float64(w.round))))
}

// runIn is what a workload instance is generated from.
type runIn struct {
	seed   int64
	rounds int
	ops    int    // per round
	dir    string // scratch directory private to this pass
}

// instance is one pass of a workload over generated inputs. A pass is a
// number of rounds; each round sets up from scratch and then times its
// share of the ops.
type instance interface {
	// discard drops whatever the previous round left, untimed, so every
	// round sets up from the same state.
	discard() error
	// setup is round r's deterministic warm-up before its timed ops.
	setup(r int, tr *tracer) error
	// run executes round r's ops, reporting each to rec.
	run(r int, tr *tracer, rec *recorder)
	// finish checks the outputs and returns their digest.
	finish() (digest string, err error)
	// counts returns the exact work counts summed over the timed ops.
	counts() workCounts
	// layers adds the workload's per-layer metrics from a traced pass.
	layers(tr *tracer, ms *metricSet)
	close() error
}

// workCounts are exact counts of simulated work. A change that moves them
// changed the work, not its speed.
type workCounts struct {
	ticks, events, sent, dropped, manoeuvres, replans int64
	routeHits, routeMisses                            int64
}

func (c *workCounts) add(o workCounts) {
	c.ticks += o.ticks
	c.events += o.events
	c.sent += o.sent
	c.dropped += o.dropped
	c.manoeuvres += o.manoeuvres
	c.replans += o.replans
	c.routeHits += o.routeHits
	c.routeMisses += o.routeMisses
}

// recorder times the contiguous ops of a round: each op ends where the
// next begins. In a traced pass it also keeps the running op's span, the
// parent of the layer spans recorded inside the op.
type recorder struct {
	tr     *tracer
	lat    []time.Duration
	failed int
	end    int // op count at the end of the current round
	last   time.Time
	op     int32 // index of the running op over the whole pass
	span   int32 // its span
}

// startRound begins the first of the round's n ops.
func (r *recorder) startRound(n int) {
	r.end = len(r.lat) + n
	r.last = time.Now()
	r.op = int32(len(r.lat))
	r.span = r.tr.begin(spanOp, -1, r.op)
}

// done ends the running op and begins the next one of the round.
func (r *recorder) done(ok bool) {
	now := time.Now()
	r.lat = append(r.lat, now.Sub(r.last))
	r.last = now
	if !ok {
		r.failed++
	}
	r.tr.end(r.span)
	r.op = int32(len(r.lat))
	r.span = -1
	if len(r.lat) < r.end {
		r.span = r.tr.begin(spanOp, -1, r.op)
	}
}

// endRound counts every op of the round not done as failed: the round
// could not go on.
func (r *recorder) endRound() {
	if missing := r.end - len(r.lat); missing > 0 {
		r.failed += missing
	}
}

// roundOut is one round's measurements.
type roundOut struct {
	first, n int // the round's ops in passOut.lat
	setup    time.Duration
	wall     time.Duration // the timed ops
	ok       int           // ops completed without failure
	rss      float64       // peak RSS over the timed ops, MiB
}

// passOut is the measured result of one pass.
type passOut struct {
	ops      int // attempted
	rounds   []roundOut
	lat      []time.Duration
	failed   int
	digest   string
	checkErr error
	counts   workCounts
	layers   metricSet

	// Runtime and host figures summed over the timed phases.
	alloc, mallocs uint64
	gcs            uint32
	heapLive       uint64 // live heap when the first round's ops start
	cpu            cpuStat
}

// opsPerSec is the ops completed over the timed phases of all rounds.
func (p passOut) opsPerSec() float64 {
	ok := 0
	for _, r := range p.rounds {
		ok += r.ok
	}
	return float64(ok) / p.wall().Seconds()
}

func (p passOut) wall() time.Duration {
	var d time.Duration
	for _, r := range p.rounds {
		d += r.wall
	}
	return d
}

// runPass runs in.rounds rounds of set-up and timed ops.
func runPass(w workload, in runIn, tr *tracer) (out passOut, err error) {
	out.ops = in.rounds * in.ops
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return out, err
	}
	inst, err := w.open(in)
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: close: %w", w.name, cerr)
		}
	}()
	rec := &recorder{tr: tr, lat: make([]time.Duration, 0, out.ops), span: -1}
	for r := 0; r < in.rounds; r++ {
		if err := inst.discard(); err != nil {
			return out, fmt.Errorf("%s: discard: %w", w.name, err)
		}
		// Every round sets up from a collected heap returned to the OS.
		debug.FreeOSMemory()
		var ro roundOut
		id := tr.begin(spanSetup, -1, -1)
		if tr != nil {
			tr.setup = id
		}
		t0 := time.Now()
		err := inst.setup(r, tr)
		ro.setup = time.Since(t0)
		tr.end(id)
		if tr != nil {
			tr.setup = -1
		}
		if err != nil {
			return out, fmt.Errorf("%s: setup: %w", w.name, err)
		}

		// The timed ops start from the set-up's live heap, trimmed
		// again, with the RSS high-water mark reset: the round's peak
		// then measures what the ops need, not where the set-up's GC
		// cycles happened to fall.
		debug.FreeOSMemory()
		resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if r == 0 {
			out.heapLive = m0.HeapAlloc
		}
		cpu0 := readCPUStat()
		done0, failed0 := len(rec.lat), rec.failed
		t0 = time.Now()
		rec.startRound(in.ops)
		inst.run(r, tr, rec)
		ro.wall = time.Since(t0)
		cpu1 := readCPUStat()
		ro.rss = peakRSSMiB()
		runtime.ReadMemStats(&m1)
		ro.first, ro.n = done0, len(rec.lat)-done0
		ro.ok = ro.n - (rec.failed - failed0)
		rec.endRound()
		out.rounds = append(out.rounds, ro)
		out.alloc += m1.TotalAlloc - m0.TotalAlloc
		out.mallocs += m1.Mallocs - m0.Mallocs
		out.gcs += m1.NumGC - m0.NumGC
		out.cpu.total += cpu1.total - cpu0.total
		out.cpu.steal += cpu1.steal - cpu0.steal
	}
	out.lat, out.failed = rec.lat, rec.failed

	out.digest, out.checkErr = inst.finish()
	out.counts = inst.counts()
	if tr != nil {
		inst.layers(tr, &out.layers)
	}
	return out, nil
}

// metricSet is an ordered set of named metrics with units.
type metricSet struct {
	names []string
	vals  map[string]metricVal
}

type metricVal struct {
	value float64
	unit  string
}

func (m *metricSet) set(name, unit string, v float64) {
	if m.vals == nil {
		m.vals = make(map[string]metricVal)
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metricVal{v, unit}
}

func (m *metricSet) merge(o metricSet) {
	for _, n := range o.names {
		m.set(n, o.vals[n].unit, o.vals[n].value)
	}
}

// json renders the set as a JSON object, values with all their digits.
func (m *metricSet) json() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range m.names {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.vals[n]
		fmt.Fprintf(&b, "%q: {\"value\": %s, \"unit\": %q}", n,
			strconv.FormatFloat(v.value, 'g', -1, 64), v.unit)
	}
	b.WriteByte('}')
	return b.String()
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

func sortedCopy(xs []time.Duration) []time.Duration {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// recoverOp turns a panic inside one op into that op's error.
func recoverOp(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of CPU time the hypervisor stole, for a cpuStat
// holding the difference of two readings.
func (s cpuStat) stealShare() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.steal) / float64(s.total)
}

// resetPeakRSS resets the kernel's RSS high-water mark of this process
// (Linux 4.0+). Where that is refused the mark stays cumulative, which
// only makes max_rss_mib an over-estimate.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// passDir returns a fresh scratch directory for one pass.
func passDir(work string, n int) string {
	return filepath.Join(work, fmt.Sprintf("pass-%d", n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
