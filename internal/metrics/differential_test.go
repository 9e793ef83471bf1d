package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

// allPairs is the oracle broad phase: every pair of n probes.
func allPairs(n int) func(dst [][2]int) [][2]int {
	return func(dst [][2]int) [][2]int {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dst = append(dst, [2]int{i, j})
			}
		}
		return dst
	}
}

// gridPairs is the broad phase a rig's fleet index supplies, built
// over the probes' current footprints: the candidate pairs of a grid
// of their centres whose cells are the largest footprint diagonal
// plus NearMissDist.
func gridPairs(probes []Probe) func(dst [][2]int) [][2]int {
	g := geom.NewGrid(1)
	return func(dst [][2]int) [][2]int {
		cell := 0.0
		for _, p := range probes {
			b := p.Footprint()
			cell = max(cell, math.Hypot(b.Length, b.Width))
		}
		g.Reset(cell + NearMissDist)
		for _, p := range probes {
			g.Insert(p.Footprint().Center)
		}
		return g.CandidatePairs(dst)
	}
}

// The broad phase must be an invisible optimisation: over arbitrary
// trajectories, modes and relevance toggles, a collector fed the grid
// broad phase and one fed every pair must report identical
// collisions, near misses, min separation and mode shares, and emit
// identical event streams.
func TestIndexedMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	modes := []string{"nominal", "degraded", "mrm", "mrc"}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		vs := make([]*fakeVehicle, n)
		mkProbes := func() []Probe {
			probes := make([]Probe, n)
			for i := range probes {
				v := vs[i]
				id := string(rune('a' + i))
				if i%3 == 0 {
					probes[i] = v.filteredProbe(id) // relevance filtering active
				} else {
					probes[i] = v.probe(id)
				}
			}
			return probes
		}
		for i := range vs {
			vs[i] = &fakeVehicle{mode: "nominal"}
		}
		brute := NewCollector(allPairs(n), mkProbes()...)
		indexedProbes := mkProbes()
		indexed := NewCollector(gridPairs(indexedProbes), indexedProbes...)
		envB := env(100 * time.Millisecond)
		envI := env(100 * time.Millisecond)

		for tick := 0; tick < 120; tick++ {
			for _, v := range vs {
				// Clustered random walk: plenty of contacts, plenty of
				// out-of-range pairs, occasional relevance toggles.
				v.pos = geom.V(rng.Float64()*80-40, rng.Float64()*80-40)
				v.mode = modes[rng.Intn(len(modes))]
				v.stopped = rng.Intn(2) == 0
				v.lane = rng.Intn(2) == 0
			}
			brute.Sample(envB)
			indexed.Sample(envI)
		}

		rb, ri := brute.Report(), indexed.Report()
		if rb.Collisions != ri.Collisions {
			t.Errorf("trial %d: collisions %d (brute) != %d (indexed)", trial, rb.Collisions, ri.Collisions)
		}
		if rb.NearMisses != ri.NearMisses {
			t.Errorf("trial %d: near misses %d (brute) != %d (indexed)", trial, rb.NearMisses, ri.NearMisses)
		}
		if rb.MinSeparation != ri.MinSeparation {
			t.Errorf("trial %d: min separation %v (brute) != %v (indexed)", trial, rb.MinSeparation, ri.MinSeparation)
		}
		for id, share := range rb.ModeShare {
			for m, v := range share {
				if ri.ModeShare[id][m] != v {
					t.Errorf("trial %d: mode share %s/%s differs", trial, id, m)
				}
			}
		}
		// Event streams must match pair-for-pair in order.
		evB, evI := envB.Log.Events(), envI.Log.Events()
		if len(evB) != len(evI) {
			t.Fatalf("trial %d: %d events (brute) != %d (indexed)", trial, len(evB), len(evI))
		}
		for k := range evB {
			if evB[k].Kind != evI[k].Kind || evB[k].Subject != evI[k].Subject || evB[k].Detail != evI[k].Detail {
				t.Fatalf("trial %d: event %d differs: %+v vs %+v", trial, k, evB[k], evI[k])
			}
		}
	}
}

// Touching boxes are a collision on both sides of the epsilon: an
// exact zero gap and a sub-epsilon gap count, the first real gap does
// not.
func TestContactEpsilonBoundary(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b := &fakeVehicle{pos: geom.V(4, 0), mode: "nominal"} // exactly touching: gap 0
	c := NewCollector(allPairs(2), a.probe("a"), b.probe("b"))
	ev := env(100 * time.Millisecond)
	c.Sample(ev)
	if got := c.Report().Collisions; got != 1 {
		t.Errorf("touching boxes: collisions = %d, want 1", got)
	}

	// A hair under the epsilon still counts as contact...
	a2 := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b2 := &fakeVehicle{pos: geom.V(4+ContactEpsilon/2, 0), mode: "nominal"}
	c2 := NewCollector(allPairs(2), a2.probe("a"), b2.probe("b"))
	c2.Sample(env(100 * time.Millisecond))
	if got := c2.Report().Collisions; got != 1 {
		t.Errorf("sub-epsilon gap: collisions = %d, want 1", got)
	}

	// ...but a real gap is a near miss, not a collision.
	a3 := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b3 := &fakeVehicle{pos: geom.V(4.01, 0), mode: "nominal"}
	c3 := NewCollector(allPairs(2), a3.probe("a"), b3.probe("b"))
	c3.Sample(env(100 * time.Millisecond))
	r := c3.Report()
	if r.Collisions != 0 || r.NearMisses != 1 {
		t.Errorf("real gap: collisions = %d near misses = %d, want 0/1", r.Collisions, r.NearMisses)
	}
}

// MinSeparation is clamped to the broad-phase radius: a run whose
// closest pass stays outside near-miss range reports NearMissDist
// exactly, however far apart the constituents actually were.
func TestMinSeparationClampedToNearMissDist(t *testing.T) {
	a := &fakeVehicle{pos: geom.V(0, 0), mode: "nominal"}
	b := &fakeVehicle{pos: geom.V(500, 0), mode: "nominal"}
	c := NewCollector(allPairs(2), a.probe("a"), b.probe("b"))
	c.Sample(env(100 * time.Millisecond))
	if got := c.Report().MinSeparation; got != NearMissDist {
		t.Errorf("clamped min separation = %v, want NearMissDist %v", got, NearMissDist)
	}
	// Within range the true separation is reported.
	b.pos = geom.V(4.5, 0) // gap 0.5
	c.Sample(env(100 * time.Millisecond))
	if got := c.Report().MinSeparation; got < 0.49 || got > 0.51 {
		t.Errorf("in-range min separation = %v, want ~0.5", got)
	}
}

// A collector with zero probes over a real run keeps a well-defined
// report: sentinel min separation, zero counts, no NaN.
func TestReportZeroProbes(t *testing.T) {
	c := NewCollector(allPairs(0))
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(c.Hook())
	e.RunFor(10 * time.Second)
	r := c.Report()
	if r.Duration != 10*time.Second {
		t.Errorf("duration = %v", r.Duration)
	}
	if r.MinSeparation != -1 {
		t.Errorf("min separation = %v, want -1 sentinel", r.MinSeparation)
	}
	if r.Collisions != 0 || r.NearMisses != 0 || r.OperationalShare != 0 {
		t.Errorf("zero-probe report = %+v", r)
	}
	if r.String() == "" {
		t.Error("report must render")
	}
}

// TestFootprintRadiusFollowsShape checks the cached footprint radii.
// A footprint that grows after the first sample must widen the circle
// reject: a 30 m box reaching a neighbour 16 m away is a collision.
// Footprints that change shape at random, by up to an order of
// magnitude, leave a collector fed the grid broad phase equal to one
// fed every pair; and a collector Reinit after a run with smaller
// shapes reports and logs what a fresh one does.
func TestFootprintRadiusFollowsShape(t *testing.T) {
	length := 4.0
	grower := Probe{ID: "a", Mode: func() string { return "mrc" },
		Footprint: func() geom.OrientedBox { return geom.OrientedBox{Length: length, Width: 2} }}
	other := (&fakeVehicle{pos: geom.V(16, 0), mode: "nominal"}).probe("b")
	grown := NewCollector(allPairs(2), grower, other)
	e := env(100 * time.Millisecond)
	grown.Sample(e)
	length = 30
	grown.Sample(e)
	if n := grown.Report().Collisions; n != 1 {
		t.Errorf("a footprint grown to reach its neighbour gives %d collisions, want 1", n)
	}

	modes := []string{"nominal", "degraded", "mrm", "mrc"}
	sizes := []float64{0, 1, 2, 4, 30}
	const n = 6
	vs := make([]*fakeVehicle, n)
	shapes := make([][2]float64, n)
	probes := func() []Probe {
		out := make([]Probe, n)
		for i := range out {
			if vs[i] == nil {
				vs[i] = &fakeVehicle{mode: "nominal"}
			}
			v := vs[i]
			out[i] = v.probe(string(rune('a' + i)))
			out[i].Footprint = func() geom.OrientedBox {
				return geom.OrientedBox{Center: v.pos, Length: shapes[i][0], Width: shapes[i][1]}
			}
		}
		return out
	}
	step := func(rng *rand.Rand, cs []*Collector, envs []*sim.Env) {
		for i := range shapes {
			shapes[i] = [2]float64{1, 1}
		}
		for tick := 0; tick < 200; tick++ {
			for i, v := range vs {
				v.pos = geom.V(rng.Float64()*80-40, rng.Float64()*80-40)
				v.mode = modes[rng.Intn(len(modes))]
				if tick > 0 && rng.Intn(8) == 0 {
					shapes[i] = [2]float64{sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]}
				}
			}
			for k, c := range cs {
				c.Sample(envs[k])
			}
		}
	}
	grid := func() *Collector {
		ps := probes()
		return NewCollector(gridPairs(ps), ps...)
	}
	reused := grid()
	step(rand.New(rand.NewSource(1)), []*Collector{reused}, []*sim.Env{env(100 * time.Millisecond)})
	reused.Reinit()

	brute := NewCollector(allPairs(n), probes()...)
	fresh := grid()
	envs := []*sim.Env{env(100 * time.Millisecond), env(100 * time.Millisecond), env(100 * time.Millisecond)}
	step(rand.New(rand.NewSource(2)), []*Collector{brute, fresh, reused}, envs)

	rb, rf, rr := brute.Report(), fresh.Report(), reused.Report()
	if rb.Collisions != rf.Collisions || rb.NearMisses != rf.NearMisses || rb.MinSeparation != rf.MinSeparation {
		t.Errorf("indexed %d collisions, %d near misses, min sep %v; brute %d, %d, %v",
			rf.Collisions, rf.NearMisses, rf.MinSeparation, rb.Collisions, rb.NearMisses, rb.MinSeparation)
	}
	if rf.Collisions == 0 || rf.NearMisses == 0 {
		t.Errorf("%d collisions and %d near misses: the layout proves nothing", rf.Collisions, rf.NearMisses)
	}
	if !reflect.DeepEqual(rf, rr) {
		t.Errorf("Reinit collector reports %+v, fresh %+v", rr, rf)
	}
	if ef, er := envs[1].Log.Events(), envs[2].Log.Events(); !reflect.DeepEqual(ef, er) {
		t.Errorf("Reinit collector logged %d events, fresh %d, or they differ", len(er), len(ef))
	}
}

// TestCircleRejectAtNearMissDist places pairs of footprints corner to
// corner along their diagonal, where the footprint gap equals the gap
// between the bounding circles, at gaps within 1e-9 of NearMissDist
// and beyond the reject's float margin, near the origin and 10 km out.
// No pair whose circles the collector finds apart, and so releases
// without its footprint distance, may have a footprint gap below
// NearMissDist.
func TestCircleRejectAtNearMissDist(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	offsets := []float64{-1e-6, -1e-9, -5e-10, -1e-10, 0, 1e-10, 5e-10, 1e-9, 1e-8, 1e-6, 1e-3}
	const pairs = 12
	boxes := make([]geom.OrientedBox, 2*pairs)
	probes := make([]Probe, len(boxes))
	for i := range probes {
		probes[i] = Probe{ID: string(rune('a' + i)), Mode: func() string { return "mrm" },
			Footprint: func() geom.OrientedBox { return boxes[i] }}
	}
	c := NewCollector(allPairs(len(probes)), probes...)
	ev := env(100 * time.Millisecond)
	skipped, scored := 0, 0
	for tick := 0; tick < 300; tick++ {
		for p := 0; p < pairs; p++ {
			origin := geom.V(float64(p)*100, 0)
			if p%2 == 1 {
				origin = origin.Add(geom.V(1e4, -1e4))
			}
			h := rng.Float64() * 2 * math.Pi
			l, w := 4+8*rng.Float64(), 2+3*rng.Float64()
			f := geom.Pose{Heading: h}.Forward()
			diag := f.Scale(l).Add(f.Perp().Scale(w)).Norm()
			gap := NearMissDist + offsets[rng.Intn(len(offsets))]
			boxes[2*p] = geom.OrientedBox{Center: origin, Heading: h, Length: l, Width: w}
			boxes[2*p+1] = geom.OrientedBox{Center: origin.Add(diag.Scale(math.Hypot(l, w) + gap)),
				Heading: h, Length: l, Width: w}
		}
		c.Sample(ev)
		for p := 0; p < pairs; p++ {
			if !c.circlesApart(2*p, 2*p+1) {
				scored++
				continue
			}
			skipped++
			if d := boxes[2*p].Dist(boxes[2*p+1]); d < NearMissDist {
				t.Fatalf("tick %d pair %d: circles apart at a footprint gap of NearMissDist%+g", tick, p, d-NearMissDist)
			}
		}
	}
	r := c.Report()
	t.Logf("%d pairs skipped, %d scored, %d near misses", skipped, scored, r.NearMisses)
	if skipped == 0 || scored == 0 || r.NearMisses == 0 {
		t.Errorf("%d pairs skipped, %d scored, %d near misses: the layout proves nothing", skipped, scored, r.NearMisses)
	}
}
