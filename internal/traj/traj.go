// Package traj is the trajectory-level MRM planner: it samples
// candidate trajectories toward a target zone (lateral offset ×
// terminal speed × deceleration profile over the route), scores each
// with a transition-risk function — proximity to other constituents'
// predicted paths (broad-phased through geom.Grid), residual risk of
// the stopped position, and decel/offset comfort terms — and selects
// the cheapest candidate under a risk ceiling. For concerted MRMs
// (core Definition 3) SelectJoint picks one candidate per constituent
// minimising the fleet-wide transition risk including the pairwise
// interaction between the selected trajectories, instead of
// per-vehicle greedy choices.
//
// Determinism: every Planner owns a private RNG seeded from the run
// seed and the constituent ID (Seed), so its draw stream depends only
// on its own planning events — never on what other entities draw from
// the engine RNG in between.
package traj

import (
	"math"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// The planner's knobs. Every run uses these values.
const (
	// Samples is the number of candidate trajectories per planning
	// event. The first candidate is always the nominal one (no offset,
	// base cruise, full service decel).
	Samples = 12
	// RiskCeiling is the maximum acceptable candidate risk: when no
	// candidate scores below it the planning event fails and the
	// executor falls back down the MRC hierarchy.
	RiskCeiling = 0.92
	// Horizon is the prediction horizon in seconds.
	Horizon = 40.0
	// SampleDT is the prediction sample step in seconds.
	SampleDT = 0.5
	// LateralMax bounds the sampled lateral offset magnitude in metres.
	LateralMax = 2.5
	// SafeDist is the separation (metres, footprint-to-footprint)
	// below which predicted proximity starts contributing risk. It is
	// also the broad-phase cell size.
	SafeDist = 12.0
	// WProximity, WZone and WComfort weight the three cost terms. The
	// total risk is clamped to [0, 1].
	WProximity = 0.5
	WZone      = 0.35
	WComfort   = 0.15
)

// Seed derives the planner stream seed for one constituent from the
// run seed and the constituent ID (FNV-1a over the ID folded into a
// splitmix64 step of the run seed). Streams of different constituents
// never collide, and a constituent's stream depends only on (run
// seed, ID) — not on registration order.
func Seed(runSeed int64, id string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	z := uint64(runSeed) + h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}

// Obstacle is another constituent's observed state at planning time:
// position, velocity vector and footprint radius (half-diagonal). The
// planner predicts it forward at constant velocity over the horizon.
type Obstacle struct {
	ID     string
	Pos    geom.Vec2
	Vel    geom.Vec2
	Radius float64
}

// Request describes one planning problem: the manoeuvring vehicle's
// state, the base route toward the target zone, and the environment.
type Request struct {
	Route *geom.Path // base route ending at the stop point
	Pose  geom.Pose
	Speed float64 // current speed (m/s)
	// SpeedCap is the tactical speed bound; candidate cruise speeds
	// never exceed it (a degraded cap below 1 m/s stays authoritative).
	SpeedCap    float64
	Spec        vehicle.Spec
	BrakeFactor float64
	Radius      float64 // own footprint half-diagonal
	// World scores the residual risk of the stopped position; nil
	// falls back to FallbackRisk.
	World        *world.World
	Zone         world.Zone // target zone (zero for in-place stops)
	FallbackRisk float64    // stop risk without a world (e.g. the MRC's nominal risk)
	// NoStop marks a hold/assist profile that keeps driving (helper
	// candidates in a concerted episode): the zone term is dropped.
	NoStop    bool
	Obstacles []Obstacle
}

// Candidate is one sampled trajectory with its scored risk breakdown.
type Candidate struct {
	Path   *geom.Path
	Cruise float64 // commanded cruise speed (m/s)
	Decel  float64 // approach deceleration of the stop profile (m/s²)
	Offset float64 // sampled lateral offset (m)
	Radius float64 // own footprint half-diagonal, for pairwise terms

	// Samples are the predicted positions at uniform SampleDT steps
	// (index 0 = now).
	Samples []geom.Vec2
	// Covered is the fraction of the path the profile completes within
	// the horizon. The zone term blends the terminal stop risk with the
	// unprotected 0.9 floor by this fraction, so a trajectory too slow
	// to reach the refuge in time cannot outscore one that gets there —
	// without it the comfort term would always favour a crawl.
	Covered float64

	// Risk is the total transition risk in [0, 1]; the three terms
	// below are its weighted components before clamping.
	Risk      float64
	Proximity float64
	ZoneRisk  float64
	Comfort   float64
}

// Planner samples and scores candidate trajectories. Each planner is
// owned by exactly one constituent and must not be shared across
// goroutines.
type Planner struct {
	rng  *sim.RNG
	grid *geom.Grid

	// scratch buffers reused across planning events: the predicted
	// obstacle sample positions and one Near answer
	sitePos []geom.Vec2
	near    []int
}

// New returns a planner with the given stream seed.
func New(seed int64) *Planner {
	return &Planner{
		rng:  sim.NewRNG(seed),
		grid: geom.NewGrid(SafeDist),
	}
}

// Reinit restores the planner, in place, to the state New(seed) would
// produce, keeping the grid and scratch allocations: the RNG reseeds
// to exactly the fresh stream, the grid empties (score() already
// resets it per planning event), and the scratch buffers truncate.
// The warm-rig path for per-constituent planner reuse across campaign
// seeds.
func (p *Planner) Reinit(seed int64) {
	p.rng.Reseed(seed)
	p.grid.Reset(SafeDist)
	p.sitePos = p.sitePos[:0]
	p.near = p.near[:0]
}

// Plan samples Candidates and returns the lowest-risk one. The
// boolean is false when every candidate scores above the risk ceiling
// (or the request cannot brake at all) — the signal to fall back down
// the MRC hierarchy.
func (p *Planner) Plan(req Request) (Candidate, bool) {
	cands := p.Candidates(req)
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Risk < best.Risk {
			best = c
		}
	}
	return best, best.Risk <= RiskCeiling
}

// Candidates samples and scores the full candidate set for one
// planning event: the nominal trajectory plus Samples-1 random draws
// over (lateral offset, cruise fraction, decel fraction). Each call
// advances the planner's private RNG by exactly 3*(Samples-1) draws.
func (p *Planner) Candidates(req Request) []Candidate {
	decel := req.Spec.ServiceDecel * req.BrakeFactor
	if req.Route == nil || decel <= 0 {
		return nil
	}
	cap := req.SpeedCap
	if cap > req.Spec.MaxSpeed {
		cap = req.Spec.MaxSpeed
	}
	if cap <= 0 {
		return nil
	}
	base := CruiseBound(cap)
	minCruise := math.Min(1, cap)

	cands := make([]Candidate, 0, Samples)
	cands = append(cands, p.build(req, 0, base, decel))
	for i := 1; i < Samples; i++ {
		off := p.rng.Range(-LateralMax, LateralMax)
		cruise := geom.Clamp(p.rng.Range(0.35, 1.0)*cap, minCruise, cap)
		d := p.rng.Range(0.45, 1.0) * decel
		cands = append(cands, p.build(req, off, cruise, d))
	}
	p.score(cands, req)
	return cands
}

// ScoreStop builds and scores the degenerate braking trajectory for
// in-place and emergency stops: straight ahead along the current
// heading at the given deceleration. The stop has no lateral freedom,
// but its transition risk is still measured against the predicted
// obstacle paths and the stop position — scripted stops report a
// quantified risk, not the MRC's nominal figure.
func (p *Planner) ScoreStop(req Request, decel float64) Candidate {
	if decel < 0.05 {
		decel = 0.05 // brake-dead coast: bound the predicted roll-out
	}
	dist := vehicle.StoppingDistance(req.Speed, decel)
	if dist > 400 {
		dist = 400
	}
	if dist < 0.1 {
		dist = 0.1
	}
	path := geom.MustPath(req.Pose.Pos, req.Pose.Advance(dist).Pos)
	c := Candidate{Path: path, Cruise: 0, Decel: decel, Radius: req.Radius}
	c.Samples, c.Covered = p.predict(path, req.Speed, 0, decel, req.Spec)
	one := []Candidate{c}
	p.score(one, req)
	return one[0]
}

// ScoreRemaining re-scores an in-flight candidate from the current
// state against fresh obstacles: the mid-MRM staleness check. It draws
// no randomness, so periodic re-scoring leaves the planner stream
// untouched.
func (p *Planner) ScoreRemaining(req Request, active Candidate, pathPos float64) Candidate {
	rem := active.Path
	if sub, err := active.Path.SubPath(pathPos, active.Path.Len()); err == nil {
		rem = sub
	}
	c := Candidate{Path: rem, Cruise: active.Cruise, Decel: active.Decel,
		Offset: active.Offset, Radius: req.Radius}
	c.Samples, c.Covered = p.predict(rem, req.Speed, active.Cruise, active.Decel, req.Spec)
	one := []Candidate{c}
	p.score(one, req)
	return one[0]
}

// HoldCandidates builds the assist profiles of a concerted helper:
// continue along the remaining path (or straight ahead) at each of the
// given hold speeds. The candidates are scored for comfort and
// proximity against req.Obstacles (normally the non-fleet environment;
// fleet-internal interaction is what SelectJoint adds).
func (p *Planner) HoldCandidates(req Request, speeds []float64) []Candidate {
	decel := req.Spec.ServiceDecel * req.BrakeFactor
	if decel <= 0 {
		decel = 0.05
	}
	route := req.Route
	if route == nil {
		route = geom.MustPath(req.Pose.Pos, req.Pose.Advance(math.Max(req.SpeedCap, 1)*Horizon).Pos)
	}
	cands := make([]Candidate, 0, len(speeds))
	for _, v := range speeds {
		v = geom.Clamp(v, 0, req.SpeedCap)
		c := Candidate{Path: route, Cruise: v, Decel: decel, Radius: req.Radius, Covered: 1}
		c.Samples = p.predictHold(route, req.Speed, v, decel, req.Spec)
		cands = append(cands, c)
	}
	hold := req
	hold.NoStop = true
	p.score(cands, hold)
	return cands
}

// CruiseBound clamps the scripted MRM cruise speed to the tactical
// cap: min(max(0.6*cap, 1), cap). The floor keeps healthy vehicles
// moving at a useful pace; the outer clamp keeps a degraded cap below
// 1 m/s authoritative instead of being silently overridden.
func CruiseBound(cap float64) float64 {
	v := 0.6 * cap
	if v < 1 {
		v = 1
	}
	if v > cap {
		v = cap
	}
	return v
}

// build constructs one candidate: the offset path plus its predicted
// sample train.
func (p *Planner) build(req Request, offset, cruise, decel float64) Candidate {
	path := offsetPath(req.Route, offset, req.Zone)
	c := Candidate{Path: path, Cruise: cruise, Decel: decel, Offset: offset, Radius: req.Radius}
	c.Samples, c.Covered = p.predict(path, req.Speed, cruise, decel, req.Spec)
	return c
}

// predict forward-simulates the longitudinal profile along the path:
// accelerate toward cruise at MaxAccel, hold, then decelerate at the
// candidate's approach decel so the vehicle stops at the path end —
// the same rule the body executes, so the samples are what will
// actually be driven. The second return is the fraction of the path
// completed within the horizon.
func (p *Planner) predict(path *geom.Path, v0, cruise, decel float64, spec vehicle.Spec) ([]geom.Vec2, float64) {
	dt := SampleDT
	steps := int(Horizon/dt) + 1
	out := make([]geom.Vec2, 0, steps)
	s, v := 0.0, v0
	out = append(out, path.PointAt(0))
	for t := 1; t < steps; t++ {
		rem := path.Len() - s
		switch {
		case rem <= vehicle.StoppingDistance(v, decel)+v*dt:
			v = math.Max(0, v-decel*dt)
		case v < cruise:
			v = math.Min(cruise, v+spec.MaxAccel*dt)
		case v > cruise:
			v = math.Max(cruise, v-decel*dt)
		}
		s += v * dt
		if s >= path.Len() {
			s = path.Len()
			v = 0
		}
		out = append(out, path.PointAt(s))
		if v == 0 && s >= path.Len() {
			break
		}
	}
	if path.Len() <= 0 {
		return out, 1
	}
	return out, geom.Clamp(s/path.Len(), 0, 1)
}

// predictHold is predict without the stop-at-end rule: helpers keep
// rolling at the hold speed until the horizon (or the path runs out).
func (p *Planner) predictHold(path *geom.Path, v0, cruise, decel float64, spec vehicle.Spec) []geom.Vec2 {
	dt := SampleDT
	steps := int(Horizon/dt) + 1
	out := make([]geom.Vec2, 0, steps)
	s, v := 0.0, v0
	out = append(out, path.PointAt(0))
	for t := 1; t < steps; t++ {
		switch {
		case v < cruise:
			v = math.Min(cruise, v+spec.MaxAccel*dt)
		case v > cruise:
			v = math.Max(cruise, v-decel*dt)
		}
		s += v * dt
		if s > path.Len() {
			s = path.Len()
		}
		out = append(out, path.PointAt(s))
	}
	return out
}

// offsetPath shifts the route laterally by offset metres: interior
// points move along the local perpendicular, the final stop point is
// clamped back into the target zone (when one is set) so the
// trajectory still ends inside the refuge.
func offsetPath(route *geom.Path, offset float64, zone world.Zone) *geom.Path {
	if offset == 0 {
		return route
	}
	pts := route.Points()
	if len(pts) < 2 {
		return route
	}
	out := make([]geom.Vec2, len(pts))
	out[0] = pts[0]
	for i := 1; i < len(pts); i++ {
		prev := pts[i-1]
		dir := pts[i].Sub(prev).Norm()
		out[i] = pts[i].Add(dir.Perp().Scale(offset))
	}
	if zone.ID != "" {
		const margin = 1.5
		last := &out[len(out)-1]
		last.X = geom.Clamp(last.X, zone.Area.Min.X+margin, zone.Area.Max.X-margin)
		last.Y = geom.Clamp(last.Y, zone.Area.Min.Y+margin, zone.Area.Max.Y-margin)
	}
	p, err := geom.NewPath(out...)
	if err != nil {
		return route
	}
	return p.SetName(route.Name())
}

// score fills the risk fields of every candidate in one pass. The
// proximity term indexes the predicted obstacle samples in one
// geom.Grid (cell = SafeDist), and each candidate sample takes the
// obstacle samples of its Near block: every one within SafeDist is
// among them, and they are exactly the obstacle samples a grid holding
// the candidate samples too would pair with it. Only obstacle samples
// within one time bin of the candidate sample contribute — the two
// trains co-exist in time, alternative candidates do not.
func (p *Planner) score(cands []Candidate, req Request) {
	nBins := int(Horizon/SampleDT) + 1
	if len(req.Obstacles) > 0 {
		p.grid.Reset(SafeDist)
		p.sitePos = p.sitePos[:0]
		// Obstacle oi's sample t is site oi*nBins+t.
		for _, ob := range req.Obstacles {
			for t := 0; t < nBins; t++ {
				pos := ob.Pos.Add(ob.Vel.Scale(float64(t) * SampleDT))
				p.grid.Insert(pos)
				p.sitePos = append(p.sitePos, pos)
			}
		}
		for ci := range cands {
			c := &cands[ci]
			for t, pos := range c.Samples {
				p.near = p.grid.Near(p.near[:0], pos)
				for _, a := range p.near {
					if bin := a % nBins; bin-t > 1 || t-bin > 1 {
						continue
					}
					gap := p.sitePos[a].Dist(pos) - req.Obstacles[a/nBins].Radius - c.Radius
					closeness := geom.Clamp((SafeDist-gap)/SafeDist, 0, 1)
					if closeness > c.Proximity {
						c.Proximity = closeness
					}
				}
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

// stopRisk scores the residual risk of the trajectory's terminal
// position: the world's stop risk there, raised to at least 0.9 when
// a target zone was set but the trajectory ends outside it. The
// terminal risk only counts for the path fraction the profile covers
// within the horizon; the uncovered remainder carries the unprotected
// 0.9 floor — a trajectory too slow to reach the refuge in time is
// still exposed, however safe its nominal stop point.
func (p *Planner) stopRisk(req Request, c *Candidate) float64 {
	if req.NoStop {
		return 0
	}
	end := c.Path.End()
	risk := req.FallbackRisk
	if req.World != nil {
		risk = req.World.StopRiskAt(end)
	}
	if req.Zone.ID != "" && !req.Zone.Contains(end) && risk < 0.9 {
		risk = 0.9
	}
	unreached := math.Max(risk, 0.9)
	return risk*c.Covered + unreached*(1-c.Covered)
}

// comfort scores the manoeuvre harshness in [0, 1]: how close the
// approach decel is to the emergency decel, how far the lateral
// offset strays, and how fast the trajectory cruises.
func comfort(c *Candidate, spec vehicle.Spec) float64 {
	decelNorm := 0.0
	if spec.EmergencyDecel > 0 {
		decelNorm = geom.Clamp(c.Decel/spec.EmergencyDecel, 0, 1)
	}
	offNorm := geom.Clamp(math.Abs(c.Offset)/LateralMax, 0, 1)
	speedNorm := 0.0
	if spec.MaxSpeed > 0 {
		speedNorm = geom.Clamp(c.Cruise/spec.MaxSpeed, 0, 1)
	}
	return 0.5*decelNorm + 0.3*offNorm + 0.2*speedNorm
}

// Interaction returns the pairwise transition-risk contribution of two
// candidate trajectories executing simultaneously: the peak closeness
// of their time-aligned predicted samples, scaled by the proximity
// weight.
func (p *Planner) Interaction(a, b Candidate) float64 {
	n := len(a.Samples)
	if len(b.Samples) < n {
		n = len(b.Samples)
	}
	peak := 0.0
	for t := 0; t < n; t++ {
		gap := a.Samples[t].Dist(b.Samples[t]) - a.Radius - b.Radius
		closeness := geom.Clamp((SafeDist-gap)/SafeDist, 0, 1)
		if closeness > peak {
			peak = closeness
		}
	}
	return WProximity * peak
}

// SelectJoint picks one candidate per constituent minimising the
// fleet-wide transition risk: the sum of each selected candidate's own
// risk plus the pairwise Interaction of every selected pair. It starts
// from the per-vehicle greedy choice and runs deterministic coordinate
// descent (bounded sweeps, first-index tie-break) — for the small
// candidate sets of a concerted episode this reaches the joint
// optimum or a fixed point within a few sweeps. Returns the selected
// index per set and the joint risk. Empty sets select -1.
func (p *Planner) SelectJoint(sets [][]Candidate) ([]int, float64) {
	n := len(sets)
	sel := make([]int, n)
	for i, set := range sets {
		if len(set) == 0 {
			sel[i] = -1
			continue
		}
		best := 0
		for k := 1; k < len(set); k++ {
			if set[k].Risk < set[best].Risk {
				best = k
			}
		}
		sel[i] = best
	}
	const sweeps = 4
	for s := 0; s < sweeps; s++ {
		changed := false
		for i, set := range sets {
			if len(set) == 0 {
				continue
			}
			bestK, bestCost := sel[i], math.Inf(1)
			for k := range set {
				cost := set[k].Risk
				for j := range sets {
					if j == i || sel[j] < 0 {
						continue
					}
					cost += p.Interaction(set[k], sets[j][sel[j]])
				}
				if cost < bestCost {
					bestK, bestCost = k, cost
				}
			}
			if bestK != sel[i] {
				sel[i] = bestK
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	total := 0.0
	for i, set := range sets {
		if sel[i] < 0 {
			continue
		}
		total += set[sel[i]].Risk
		for j := i + 1; j < n; j++ {
			if sel[j] < 0 {
				continue
			}
			total += p.Interaction(set[sel[i]], sets[j][sel[j]])
		}
	}
	return sel, total
}
