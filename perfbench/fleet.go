package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
)

const (
	// fleetPairs is the E18 row the workload runs: 400 constituents.
	fleetPairs = 200
	// fleetWarmup is the simulated time set-up runs before the timed
	// ticks, as BenchmarkMegaFleetTickSeq does.
	fleetWarmup = 30 * time.Second
	fleetStep   = 100 * time.Millisecond
	// fleetTicks are the timed ticks of one round: simulated seconds 30
	// to 110, over which tick cost grows about a fifth as the queue forms.
	fleetTicks = 800
)

// fleet is E18's baseline incident at 200 pairs on the sequential engine:
// the victim truck blind and stranded mid-tunnel from t=0, no V2X. The op
// is one Engine.RunTick after the warm-up. Every round builds the same
// rig and times the same ticks, so every round must end in the same
// output digest.
type fleet struct {
	in     runIn
	seed   int64
	victim string

	rig       *scenario.QuarryRig
	marks     tickMarks
	warmTicks []time.Duration // per warm-up tick, traced set-up only
	onsetMs   []float64       // each round's onset tick, traced set-up only
	base      workCounts      // counts at the end of the warm-up
	report0   int             // manoeuvres at the end of the warm-up
	work      workCounts
	digest    string
	err       error
}

// openFleet generates the rig seed from the workload seed. The victim is
// the rig's first truck in every run, so the incident, and with it the
// per-tick cost curve, has the same shape for every seed. (The baseline
// policy draws no random number that reaches the output, so today every
// seed also gives the same digest.)
func openFleet(in runIn) (instance, error) {
	rng := rand.New(rand.NewSource(in.seed))
	return &fleet{in: in, seed: 1 + rng.Int63n(1<<31-1), victim: "truck1_1"}, nil
}

func (f *fleet) discard() error {
	f.rig = nil
	return nil
}

func (f *fleet) setup(_ int, tr *tracer) error {
	f.warmTicks = f.warmTicks[:0]
	id := tr.begin(spanAcquire, -1, -1)
	rig, err := scenario.NewQuarry(scenario.QuarryConfig{
		Pairs: fleetPairs, TrucksPerPair: 1,
		Policy:       scenario.PolicyBaseline,
		Seed:         f.seed,
		BeaconPeriod: 5 * time.Second,
	})
	tr.end(id)
	if err != nil {
		return err
	}
	v := rig.Trucks[0]
	if v.ID() != f.victim {
		return fmt.Errorf("first truck is %s, want %s", v.ID(), f.victim)
	}
	v.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	v.ApplyFault(fault.Fault{ID: "blind", Target: v.ID(),
		Kind: fault.KindSensor, Severity: 1, Permanent: true})
	if tr != nil {
		f.marks.attach(rig.Engine)
		f.marks.reset()
	}
	w := tr.begin(spanWarmup, -1, -1)
	for i := 0; i < int(fleetWarmup/fleetStep); i++ {
		if tr == nil {
			rig.Engine.RunTick()
			continue
		}
		t0 := time.Now()
		rig.Engine.RunTick()
		f.warmTicks = append(f.warmTicks, time.Since(t0))
	}
	tr.end(w)
	tr.setPhases(w, &f.marks)

	ev, ok := firstEvent(rig.Engine.Env().Log, sim.EventMRMStarted, f.victim)
	if !ok {
		return fmt.Errorf("%s started no MRM during the warm-up", f.victim)
	}
	if tr != nil && int(ev.Tick) < len(f.warmTicks) {
		f.onsetMs = append(f.onsetMs, ms(f.warmTicks[ev.Tick]))
	}
	f.rig = rig
	f.base = f.snapshot()
	f.report0 = rig.Collector.Report().Manoeuvres
	return nil
}

func firstEvent(log *sim.EventLog, kind sim.EventKind, subject string) (sim.Event, bool) {
	for _, ev := range log.ByKind(kind) {
		if ev.Subject == subject {
			return ev, true
		}
	}
	return sim.Event{}, false
}

// snapshot reads the rig's cumulative work counters.
func (f *fleet) snapshot() workCounts {
	r := f.rig
	h, m := r.World.Graph().RouteCacheStats()
	sent, dropped := r.Net.Stats()
	replans := 0
	for _, k := range r.All() {
		replans += k.Replans()
	}
	return workCounts{
		ticks:       r.Engine.Env().Clock.Tick(),
		events:      int64(r.Engine.Env().Log.Len()),
		sent:        sent,
		dropped:     dropped,
		replans:     int64(replans),
		routeHits:   int64(h),
		routeMisses: int64(m),
	}
}

func (f *fleet) run(_ int, tr *tracer, rec *recorder) {
	eng := f.rig.Engine
	for k := 0; k < f.in.ops; k++ {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
			f.marks.reset()
		}
		if err := f.tick(eng); err != nil {
			f.fail(err)
			return
		}
		if tr != nil {
			id := tr.add(span{kind: spanTick, parent: rec.span, op: rec.op, start: tr.at(t0), end: tr.now()})
			tr.setPhases(id, &f.marks)
		}
		rec.done(true)
	}
	f.fail(f.endRound())
}

func (f *fleet) fail(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func (f *fleet) tick(eng *sim.Engine) (err error) {
	defer recoverOp(&err)
	eng.RunTick()
	return nil
}

// endRound digests the whole event log plus the metrics report at the end
// of the round's window. It checks that the report covers every simulated
// tick, that the blind victim ended the window in its minimal risk
// condition, and that the round's digest equals the previous rounds'.
func (f *fleet) endRound() error {
	rep := f.rig.Collector.Report()
	if now := f.rig.Engine.Env().Clock.Now(); rep.Duration != now {
		return fmt.Errorf("report covers %v of %v simulated", rep.Duration, now)
	}
	if m := f.rig.Trucks[0].Mode(); m != core.ModeMRC {
		return fmt.Errorf("%s ended the window in mode %s, want mrc", f.victim, m)
	}
	h := sha256.New()
	if err := f.rig.Engine.Env().Log.WriteJSON(h); err != nil {
		return err
	}
	if err := json.NewEncoder(h).Encode(rep); err != nil {
		return err
	}
	now := f.snapshot()
	f.work.add(workCounts{
		ticks:       now.ticks - f.base.ticks,
		events:      now.events - f.base.events,
		sent:        now.sent - f.base.sent,
		dropped:     now.dropped - f.base.dropped,
		manoeuvres:  int64(rep.Manoeuvres - f.report0),
		replans:     now.replans - f.base.replans,
		routeHits:   now.routeHits - f.base.routeHits,
		routeMisses: now.routeMisses - f.base.routeMisses,
	})
	d := hex.EncodeToString(h.Sum(nil))
	if f.digest != "" && d != f.digest {
		return fmt.Errorf("round digest %.16s differs from the first round's %.16s", d, f.digest)
	}
	f.digest = d
	return nil
}

func (f *fleet) finish() (string, error) { return f.digest, f.err }

func (f *fleet) counts() workCounts { return f.work }

func (f *fleet) layers(tr *tracer, m *metricSet) {
	m.set("sim.onset_tick_ms", "ms", median(f.onsetMs))
	m.set("sim.warmup_ms", "ms", tr.stat(spanWarmup, false).meanMs())
}

func (f *fleet) close() error {
	f.rig = nil
	return nil
}
