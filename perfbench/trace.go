package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"coopmrm/internal/sim"
)

// spanKind names the layer whose call a span wraps. The text before the
// dot of its name is the repository module, so a per-layer metric reads as
// time spent in that module's entry point.
type spanKind uint8

const (
	spanOp         spanKind = iota // one timed op
	spanSetup                      // one round's set-up
	spanAcquire                    // NewQuarry, or AcquireQuarry including Reset
	spanRun                        // one rig horizon: Rig.Run
	spanTick                       // one Engine.RunTick
	spanWarmup                     // fleet-incident's first 30 simulated seconds
	spanFold                       // per-seed table returned -> OnFold
	spanCheckpoint                 // the same gap on a seed that writes a checkpoint
	spanSubmit                     // POST /v1/jobs
	spanWait                       // status polls until done
	spanArtifact                   // GET .../artifact, tar read to the end
)

var spanNames = [...]string{
	spanOp:         "op",
	spanSetup:      "setup",
	spanAcquire:    "scenario.acquire",
	spanRun:        "sim.run",
	spanTick:       "sim.tick",
	spanWarmup:     "sim.warmup",
	spanFold:       "coopmrm.fold",
	spanCheckpoint: "artifact.checkpoint",
	spanSubmit:     "server.submit",
	spanWait:       "server.wait",
	spanArtifact:   "server.artifact",
}

// span is one traced interval. Spans of one op share op (-1 outside
// ops); parent is the index of the enclosing span or -1. sim.run, sim.tick
// and sim.warmup spans carry the tick phase totals the markers measured
// inside them, so per-tick phases are counted at the run boundary instead
// of costing three spans a tick.
type span struct {
	kind            spanKind
	parent, op      int32
	start, end      int64 // ns since the tracer's epoch
	ticks           int32
	pre, ents, post int64 // ns
}

// tracer keeps spans in memory; write puts them on disk once the run is
// over. A nil *tracer is the untraced mode: every method is a no-op and
// no clock is read on its behalf.
type tracer struct {
	epoch time.Time
	spans []span
	setup int32 // the open set-up span: the parent of spans outside ops
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), setup: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index. A span outside any op and
// without a parent belongs to the open set-up span.
func (t *tracer) begin(kind spanKind, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	if parent < 0 && op < 0 {
		parent = t.setup
	}
	t.spans = append(t.spans, span{kind: kind, parent: parent, op: op, start: t.now(), end: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
}

// add records a span whose bounds were measured by the caller.
func (t *tracer) add(s span) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// setPhases stores tick phase totals on span id.
func (t *tracer) setPhases(id int32, m *tickMarks) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.ticks = int32(m.ticks)
	s.pre, s.ents, s.post = int64(m.pre), int64(m.ents), int64(m.post)
}

// layerStat sums spans of one kind.
type layerStat struct {
	n                      int
	total                  time.Duration
	ticks                  int64
	pre, ents, post, phase time.Duration
}

// stat sums the closed spans of one kind; timed keeps only spans inside
// timed ops, leaving out set-up.
func (t *tracer) stat(kind spanKind, timed bool) layerStat {
	var st layerStat
	if t == nil {
		return st
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind != kind || s.end < 0 || (timed && s.op < 0) {
			continue
		}
		st.n++
		st.total += time.Duration(s.end - s.start)
		st.ticks += int64(s.ticks)
		st.pre += time.Duration(s.pre)
		st.ents += time.Duration(s.ents)
		st.post += time.Duration(s.post)
	}
	st.phase = st.pre + st.ents + st.post
	return st
}

// meanMs is the mean span duration in milliseconds, 0 when none ran.
func (st layerStat) meanMs() float64 {
	if st.n == 0 {
		return 0
	}
	return ms(st.total) / float64(st.n)
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"parent":%d,"op":%d,"start_ns":%d,"end_ns":%d`,
			i, spanNames[s.kind], s.parent, s.op, s.start, s.end)
		if s.ticks > 0 {
			fmt.Fprintf(bw, `,"ticks":%d,"pre_ns":%d,"entities_ns":%d,"post_ns":%d`,
				s.ticks, s.pre, s.ents, s.post)
		}
		bw.WriteString("}\n")
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// tickMarks splits engine ticks into their pre-hook, entity-step and
// post-hook phases from outside the engine. attach appends a pre-hook after
// the rig's own hooks, registers an entity after the rig's own entities and
// appends a post-hook last, so the three markers fire at the phase
// boundaries. Engine.Reset drops registrations: attach again after every
// Reset. The markers read the clock only; they emit nothing and draw no
// random numbers, which the traced-vs-untraced digest check holds.
type tickMarks struct {
	last   time.Time // end of the previous tick, or the run's start
	preEnd time.Time
	entEnd time.Time

	ticks           int
	pre, ents, post time.Duration
}

// markerID is the ID of the marker entity; no rig uses it.
const markerID = "perfbench.marker"

type markerEntity struct{ m *tickMarks }

func (markerEntity) ID() string          { return markerID }
func (e markerEntity) Step(env *sim.Env) { e.m.entEnd = time.Now() }

func (m *tickMarks) attach(e *sim.Engine) {
	e.AddPreHook(func(*sim.Env) { m.preEnd = time.Now() })
	e.MustRegister(markerEntity{m})
	e.AddPostHook(func(*sim.Env) {
		now := time.Now()
		pre, ents, post := m.preEnd.Sub(m.last), m.entEnd.Sub(m.preEnd), now.Sub(m.entEnd)
		m.ticks++
		m.pre += pre
		m.ents += ents
		m.post += post
		m.last = now
	})
}

// reset zeroes the totals and starts the next tick's clock now.
func (m *tickMarks) reset() {
	m.ticks, m.pre, m.ents, m.post = 0, 0, 0, 0
	m.last = time.Now()
}
