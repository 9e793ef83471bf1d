package traj

import (
	"math"
	"testing"

	"coopmrm/internal/geom"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

func testZone() world.Zone {
	return world.Zone{ID: "refuge", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(70, 10), geom.V(95, 35))}
}

func testWorld(t *testing.T) *world.World {
	t.Helper()
	w := world.New()
	w.MustAddZone(testZone())
	return w
}

func testRequest(w *world.World) Request {
	spec := vehicle.DefaultSpec(vehicle.KindTruck)
	return Request{
		Route:        geom.MustPath(geom.V(0, 0), geom.V(60, 0), geom.V(80, 20)),
		Pose:         geom.Pose{Pos: geom.V(0, 0)},
		Speed:        6,
		SpeedCap:     spec.MaxSpeed,
		Spec:         spec,
		BrakeFactor:  1,
		Radius:       2,
		World:        w,
		Zone:         testZone(),
		FallbackRisk: 0.3,
	}
}

func TestSeedDerivation(t *testing.T) {
	a := Seed(42, "t1")
	if a != Seed(42, "t1") {
		t.Error("Seed not stable for identical inputs")
	}
	if a == Seed(42, "t2") {
		t.Error("different IDs must get different streams")
	}
	if a == Seed(43, "t1") {
		t.Error("different run seeds must get different streams")
	}
	for _, s := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if Seed(s, "") == 0 || Seed(s, "x") == 0 {
			t.Errorf("Seed(%d, ...) produced the forbidden zero seed", s)
		}
	}
}

func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Risk != b[i].Risk || a[i].Cruise != b[i].Cruise ||
			a[i].Decel != b[i].Decel || a[i].Offset != b[i].Offset {
			return false
		}
		if len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for t := range a[i].Samples {
			if a[i].Samples[t] != b[i].Samples[t] {
				return false
			}
		}
	}
	return true
}

// Two planners with the same seed must produce byte-identical candidate
// sets call after call — and the non-sampling entry points (ScoreStop,
// ScoreRemaining, HoldCandidates) must not advance the stream, or
// planner output would depend on how often staleness checks run.
func TestCandidateStreamDeterminism(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	req.Obstacles = []Obstacle{{ID: "o1", Pos: geom.V(40, 3), Vel: geom.V(-1, 0), Radius: 2}}

	p1 := New(Seed(7, "t1"))
	p2 := New(Seed(7, "t1"))
	first := p1.Candidates(req)
	if !sameCandidates(first, p2.Candidates(req)) {
		t.Fatal("first planning events diverged for identical seeds")
	}

	// Perturb p1 with every RNG-free entry point.
	cand := first[0]
	p1.ScoreStop(req, 2.0)
	p1.ScoreRemaining(req, cand, 5)
	p1.HoldCandidates(req, []float64{1, 2, 4})

	if !sameCandidates(p1.Candidates(req), p2.Candidates(req)) {
		t.Error("ScoreStop/ScoreRemaining/HoldCandidates advanced the planner stream")
	}
}

func TestCandidatesShape(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	p := New(1)
	cands := p.Candidates(req)
	if len(cands) != Samples {
		t.Fatalf("candidates = %d, want %d", len(cands), Samples)
	}
	// Candidate 0 is the nominal scripted trajectory.
	nom := cands[0]
	if nom.Offset != 0 || nom.Cruise != CruiseBound(req.SpeedCap) ||
		nom.Decel != req.Spec.ServiceDecel*req.BrakeFactor {
		t.Errorf("nominal candidate = %+v", nom)
	}
	for i, c := range cands {
		if c.Risk < 0 || c.Risk > 1 {
			t.Errorf("candidate %d risk %v outside [0,1]", i, c.Risk)
		}
		if math.Abs(c.Offset) > LateralMax {
			t.Errorf("candidate %d offset %v beyond LateralMax", i, c.Offset)
		}
		if len(c.Samples) == 0 {
			t.Errorf("candidate %d has no predicted samples", i)
		}
	}
	// No route or no braking: nothing to sample.
	broken := req
	broken.Route = nil
	if p.Candidates(broken) != nil {
		t.Error("nil route should produce no candidates")
	}
	broken = req
	broken.BrakeFactor = 0
	if p.Candidates(broken) != nil {
		t.Error("brake-dead request should produce no candidates")
	}
}

func TestCruiseBound(t *testing.T) {
	cases := []struct{ cap, want float64 }{
		{10, 6},    // plain 0.6 * cap
		{1.2, 1},   // floor lifts 0.72 to 1
		{0.5, 0.5}, // degraded cap below 1 m/s stays authoritative
		{2, 1.2},
	}
	for _, tc := range cases {
		if got := CruiseBound(tc.cap); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CruiseBound(%v) = %v, want %v", tc.cap, got, tc.want)
		}
	}
}

// Regression companion to the executor's cruise clamp: a degraded
// speed cap below the old 1 m/s floor must bound every sampled cruise.
func TestCandidatesRespectDegradedCap(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	req.SpeedCap = 0.4
	p := New(3)
	for i, c := range p.Candidates(req) {
		if c.Cruise > req.SpeedCap+1e-12 {
			t.Errorf("candidate %d cruise %v exceeds degraded cap %v", i, c.Cruise, req.SpeedCap)
		}
	}
}

// Offset candidates must still terminate inside the target zone: the
// stop point is clamped back into the refuge.
func TestOffsetCandidatesEndInZone(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	zone := testZone()
	p := New(11)
	for i, c := range p.Candidates(req) {
		if !zone.Contains(c.Path.End()) {
			t.Errorf("candidate %d (offset %v) ends at %v outside the zone",
				i, c.Offset, c.Path.End())
		}
	}
}

func TestObstacleProximityRaisesRisk(t *testing.T) {
	w := testWorld(t)
	clear := testRequest(w)
	p1 := New(5)
	quiet, ok := p1.Plan(clear)
	if !ok {
		t.Fatal("clear plan should succeed")
	}
	blocked := testRequest(w)
	// Parked straddling the route midpoint: every candidate must pass it.
	blocked.Obstacles = []Obstacle{{ID: "o1", Pos: geom.V(40, 0), Radius: 3}}
	p2 := New(5)
	cands := p2.Candidates(blocked)
	maxProx := 0.0
	for _, c := range cands {
		if c.Proximity > maxProx {
			maxProx = c.Proximity
		}
	}
	if maxProx == 0 {
		t.Fatal("an obstacle on the route must register as proximity risk")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Risk < best.Risk {
			best = c
		}
	}
	if best.Risk < quiet.Risk {
		t.Errorf("blocked best risk %v below clear best risk %v", best.Risk, quiet.Risk)
	}
}

// A trajectory too slow to reach the refuge within the horizon must
// not outscore one that gets there: the comfort term alone would
// always favour a crawl, so the zone term charges the unprotected 0.9
// floor for the uncovered path fraction.
func TestSlowCandidatesDoNotWin(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	p := New(6)
	cands := p.Candidates(req)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Risk < best.Risk {
			best = c
		}
	}
	if best.Covered < 1 {
		t.Errorf("selected candidate covers only %.2f of the route (cruise %.2f): crawl won",
			best.Covered, best.Cruise)
	}
}

func TestPlanCeiling(t *testing.T) {
	w := testWorld(t)
	p := New(9)
	if _, ok := p.Plan(testRequest(w)); !ok {
		t.Error("the ceiling should accept the quiet-site plan")
	}

	// A vehicle boxed in by an obstacle over its own position, with
	// nowhere safe to stop and brakes that only brake hard (every
	// sampled decel is at or above the emergency decel): proximity,
	// zone and comfort all score high for every candidate.
	req := testRequest(nil)
	req.Zone, req.FallbackRisk = world.Zone{}, 1
	req.Spec.EmergencyDecel = 0.45 * req.Spec.ServiceDecel
	req.Obstacles = []Obstacle{{ID: "block", Pos: req.Pose.Pos, Radius: 50}}
	for i, c := range p.Candidates(req) {
		if c.Risk <= RiskCeiling {
			t.Fatalf("setup: candidate %d risk %v is not above the ceiling %v", i, c.Risk, RiskCeiling)
		}
	}
	if _, ok := p.Plan(req); ok {
		t.Error("Plan must fail when every candidate scores above the ceiling")
	}
}

func TestScoreStop(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	req.Zone = world.Zone{} // in-place stop: no target refuge
	p := New(2)
	c := p.ScoreStop(req, 0) // brake-dead: decel floored at 0.05
	if c.Decel != 0.05 {
		t.Errorf("decel = %v, want the 0.05 coast floor", c.Decel)
	}
	if len(c.Samples) == 0 || c.Risk < 0 || c.Risk > 1 {
		t.Errorf("stop candidate = %+v", c)
	}
	// Rolling out at speed must not predict beyond the 400 m clamp.
	if c.Path.Len() > 400+1e-9 {
		t.Errorf("roll-out length %v beyond clamp", c.Path.Len())
	}
}

func TestHoldCandidatesDropZoneTerm(t *testing.T) {
	w := testWorld(t)
	req := testRequest(w)
	p := New(4)
	holds := p.HoldCandidates(req, []float64{1, 2, 40})
	if len(holds) != 3 {
		t.Fatalf("holds = %d", len(holds))
	}
	for i, h := range holds {
		if h.ZoneRisk != 0 {
			t.Errorf("hold %d carries zone risk %v; helpers do not stop", i, h.ZoneRisk)
		}
		if h.Cruise > req.SpeedCap {
			t.Errorf("hold %d cruise %v above cap", i, h.Cruise)
		}
	}
}

func TestInteraction(t *testing.T) {
	p := New(1)
	near := []geom.Vec2{geom.V(0, 0), geom.V(1, 0)}
	far := []geom.Vec2{geom.V(200, 0), geom.V(201, 0)}
	a := Candidate{Samples: near, Radius: 1}
	b := Candidate{Samples: near, Radius: 1}
	c := Candidate{Samples: far, Radius: 1}
	if got := p.Interaction(a, b); got != WProximity {
		t.Errorf("overlapping trains interaction = %v, want %v", got, WProximity)
	}
	if got := p.Interaction(a, c); got != 0 {
		t.Errorf("distant trains interaction = %v, want 0", got)
	}
}

// Joint selection must beat per-vehicle greedy choice when the two
// greedy favourites collide: the fleet-optimal pick trades a slightly
// riskier solo candidate for removing the pairwise interaction.
func TestSelectJointAvoidsCollision(t *testing.T) {
	p := New(1)
	near := []geom.Vec2{geom.V(0, 0), geom.V(1, 0), geom.V(2, 0)}
	farA := []geom.Vec2{geom.V(100, 0), geom.V(101, 0), geom.V(102, 0)}
	farB := []geom.Vec2{geom.V(0, 100), geom.V(0, 101), geom.V(0, 102)}
	setA := []Candidate{
		{Risk: 0.1, Samples: near, Radius: 1},
		{Risk: 0.2, Samples: farA, Radius: 1},
	}
	setB := []Candidate{
		{Risk: 0.1, Samples: near, Radius: 1},
		{Risk: 0.2, Samples: farB, Radius: 1},
	}
	sel, total := p.SelectJoint([][]Candidate{setA, setB})
	if sel[0] == 0 && sel[1] == 0 {
		t.Fatal("joint selection kept both colliding favourites")
	}
	// Greedy (both index 0) costs 0.1+0.1+WProximity = 0.7; the joint
	// optimum swaps one vehicle out for 0.3 total.
	if math.Abs(total-0.3) > 1e-9 {
		t.Errorf("joint risk = %v, want 0.3", total)
	}
	// Empty sets select -1 and contribute nothing.
	sel, total = p.SelectJoint([][]Candidate{nil, setB})
	if sel[0] != -1 || sel[1] != 0 || math.Abs(total-0.1) > 1e-9 {
		t.Errorf("empty-set selection = %v risk %v", sel, total)
	}
}
