package traj

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"coopmrm/internal/geom"
	"coopmrm/internal/vehicle"
)

// parentScore is the oracle for score: the proximity pass as it was
// before the obstacle-only grid. It inserts the obstacle and candidate
// samples into one grid, enumerates and sorts every candidate pair,
// and keeps the (obstacle, candidate) pairs within one time bin. The
// zone, comfort and total terms are score's own.
func parentScore(p *Planner, cands []Candidate, req Request) {
	nBins := int(Horizon/SampleDT) + 1
	nObs := len(req.Obstacles)
	obsEnd := nObs * nBins
	if nObs > 0 {
		grid := geom.NewGrid(SafeDist)
		var sitePos []geom.Vec2
		for _, ob := range req.Obstacles {
			for t := 0; t < nBins; t++ {
				pos := ob.Pos.Add(ob.Vel.Scale(float64(t) * SampleDT))
				grid.Insert(pos)
				sitePos = append(sitePos, pos)
			}
		}
		// candSite[h-obsEnd] is the (candidate, bin) of site h: a
		// candidate's samples stop early once it comes to rest.
		var candSite [][2]int
		for ci := range cands {
			for t, pos := range cands[ci].Samples {
				grid.Insert(pos)
				candSite = append(candSite, [2]int{ci, t})
			}
		}
		for _, pr := range grid.CandidatePairs(nil) {
			a, b := pr[0], pr[1]
			if (a < obsEnd) == (b < obsEnd) {
				continue
			}
			binA := a % nBins
			ci, binB := candSite[b-obsEnd][0], candSite[b-obsEnd][1]
			if binA-binB > 1 || binB-binA > 1 {
				continue
			}
			gap := sitePos[a].Dist(cands[ci].Samples[binB]) -
				req.Obstacles[a/nBins].Radius - cands[ci].Radius
			closeness := geom.Clamp((SafeDist-gap)/SafeDist, 0, 1)
			if closeness > cands[ci].Proximity {
				cands[ci].Proximity = closeness
			}
		}
	}
	for i := range cands {
		c := &cands[i]
		c.ZoneRisk = p.stopRisk(req, c)
		c.Comfort = comfort(c, req.Spec)
		c.Risk = geom.Clamp(
			WProximity*c.Proximity+WZone*c.ZoneRisk+WComfort*c.Comfort,
			0, 1)
	}
}

// rescored returns copies of cands with the risk fields cleared and
// filled again by the oracle.
func rescored(p *Planner, cands []Candidate, req Request) []Candidate {
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		c.Proximity, c.ZoneRisk, c.Comfort, c.Risk = 0, 0, 0, 0
		out[i] = c
	}
	parentScore(p, out, req)
	return out
}

// obstacleCloud draws one of four layouts around centre: stationary
// obstacles stacked in one cell, a lattice of stationary obstacles
// exactly SafeDist apart, random movers, or a mix. Centres range over
// negative coordinates too.
func obstacleCloud(rng *rand.Rand, centre geom.Vec2, safe float64) []Obstacle {
	var obs []Obstacle
	add := func(p, v geom.Vec2) {
		obs = append(obs, Obstacle{ID: "o", Pos: p, Vel: v, Radius: 0.5 + 3*rng.Float64()})
	}
	switch rng.Intn(4) {
	case 0: // stacked, stationary, in one cell
		base := geom.V(math.Floor(centre.X/safe)*safe, math.Floor(centre.Y/safe)*safe)
		for i := 0; i < 2+rng.Intn(8); i++ {
			add(base.Add(geom.V(rng.Float64()*safe, rng.Float64()*safe)), geom.Vec2{})
		}
	case 1: // stationary lattice exactly SafeDist apart
		for i := -3; i <= 3; i++ {
			for j := -1; j <= 1; j++ {
				add(centre.Add(geom.V(float64(i)*safe, float64(j)*safe)), geom.Vec2{})
			}
		}
	case 2: // movers
		for i := 0; i < 1+rng.Intn(20); i++ {
			p := centre.Add(geom.V(rng.Float64()*160-80, rng.Float64()*80-40))
			add(p, geom.V(rng.Float64()*16-8, rng.Float64()*6-3))
		}
	default: // both
		for i := 0; i < 8; i++ {
			add(centre.Add(geom.V(float64(i)*safe/2, 3)), geom.Vec2{})
			add(centre.Add(geom.V(rng.Float64()*100-50, rng.Float64()*20-10)), geom.V(rng.Float64()*10-5, 0))
		}
	}
	return obs
}

// randomRequest routes a truck from a start anywhere in [-150, 150)²
// through two more waypoints, with obstacles around the route.
func randomRequest(rng *rand.Rand, safe float64) Request {
	spec := vehicle.DefaultSpec(vehicle.KindTruck)
	start := geom.V(rng.Float64()*300-150, rng.Float64()*300-150)
	mid := start.Add(geom.V(20+rng.Float64()*60, rng.Float64()*40-20))
	end := mid.Add(geom.V(rng.Float64()*40-20, 10+rng.Float64()*40))
	route := geom.MustPath(start, mid, end)
	return Request{
		Route:        route,
		Pose:         geom.Pose{Pos: start, Heading: mid.Sub(start).Angle()},
		Speed:        rng.Float64() * 10,
		SpeedCap:     spec.MaxSpeed,
		Spec:         spec,
		BrakeFactor:  1,
		Radius:       2,
		FallbackRisk: 0.3,
		Obstacles:    obstacleCloud(rng, start.Lerp(mid, rng.Float64()), safe),
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertScoresEqual(t *testing.T, what string, got, want []Candidate) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, oracle %d", what, len(got), len(want))
	}
	near := 0
	for i := range got {
		g, w := got[i], want[i]
		if !sameBits(g.Proximity, w.Proximity) || !sameBits(g.Risk, w.Risk) ||
			!sameBits(g.ZoneRisk, w.ZoneRisk) || !sameBits(g.Comfort, w.Comfort) {
			t.Fatalf("%s candidate %d: proximity %v risk %v, oracle proximity %v risk %v",
				what, i, g.Proximity, g.Risk, w.Proximity, w.Risk)
		}
		if g.Proximity > 0 {
			near++
		}
	}
	return near
}

// TestScoreMatchesParentPairs checks score against the all-pairs
// oracle on random obstacle clouds through every scoring entry point:
// Proximity and Risk must be bit-identical. The oracle's pair count
// grows with the square of the samples per cell, so 12 trials over
// the 40 s horizon keep the test near two seconds.
func TestScoreMatchesParentPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	near, total := 0, 0
	for trial := 0; trial < 12; trial++ {
		p := New(int64(trial + 1))
		req := randomRequest(rng, SafeDist)

		cands := p.Candidates(req)
		near += assertScoresEqual(t, "Candidates", cands, rescored(p, cands, req))

		stop := p.ScoreStop(req, 0.5+3*rng.Float64())
		near += assertScoresEqual(t, "ScoreStop", []Candidate{stop}, rescored(p, []Candidate{stop}, req))

		rem := p.ScoreRemaining(req, cands[rng.Intn(len(cands))], rng.Float64()*30)
		near += assertScoresEqual(t, "ScoreRemaining", []Candidate{rem}, rescored(p, []Candidate{rem}, req))

		hold := p.HoldCandidates(req, []float64{0, 2, 5, 9})
		holdReq := req
		holdReq.NoStop = true
		near += assertScoresEqual(t, "HoldCandidates", hold, rescored(p, hold, holdReq))
		total += len(cands) + 2 + len(hold)
	}
	if near < total/4 {
		t.Errorf("only %d of %d scored candidates came near an obstacle: clouds too sparse to prove anything", near, total)
	}
}

// TestScoreRetainsNoPairBuffer pins the memory a planner keeps after
// scoring against fleet-incident's geometry (E18 at 200 pairs): 200
// stationary diggers 6 m apart and 200 trucks driving along the haul
// road, with the stopping truck mid-road. The all-pairs pass kept
// about 100 MB of pair buffer alive in the planner; the obstacle-only
// grid keeps the grid, the obstacle samples and one Near answer.
func TestScoreRetainsNoPairBuffer(t *testing.T) {
	var obs []Obstacle
	for k := 1; k <= 200; k++ {
		obs = append(obs, Obstacle{ID: "digger", Pos: geom.V(5, float64(6*k)), Radius: 4})
		obs = append(obs, Obstacle{ID: "truck", Pos: geom.V(float64(150-14*k), 0), Vel: geom.V(8, 0), Radius: 5})
	}
	spec := vehicle.DefaultSpec(vehicle.KindTruck)
	req := Request{
		Pose: geom.Pose{Pos: geom.V(150, 0)}, Speed: 8,
		SpeedCap: spec.MaxSpeed, Spec: spec, BrakeFactor: 1, Radius: 5,
		FallbackRisk: 0.5, Obstacles: obs,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New(1)
	c := p.ScoreStop(req, spec.ServiceDecel)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if c.Proximity <= 0 {
		t.Fatalf("setup: the stop never came near an obstacle (proximity %v)", c.Proximity)
	}
	const bound = 8 << 20
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained %.2f MiB", float64(grown)/(1<<20))
	if grown > bound {
		t.Errorf("planner retains %.1f MiB after one ScoreStop, want under %d MiB", float64(grown)/(1<<20), bound>>20)
	}
}
