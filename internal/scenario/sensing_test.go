package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/collab"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/world"
)

// fullScan is the oracle for the indexed neighbour feed: every other
// fleet member at its live position, in fleet order — the feed before
// the sensing index.
func fullScan(f *fleet, self *core.Constituent) []sensor.Target {
	var out []sensor.Target
	for _, o := range f.cs {
		if o != self {
			out = append(out, sensor.Target{ID: o.ID(), Pos: o.Body().Position()})
		}
	}
	return out
}

// inRange returns the targets within self's effective sensor range,
// sorted by ID: what the obstacle monitor can see of a feed.
func inRange(self *core.Constituent, targets []sensor.Target) []sensor.Target {
	pos, r := self.Body().Position(), self.Suite().EffectiveRange()
	var out []sensor.Target
	for _, t := range targets {
		if pos.Dist(t.Pos) <= r {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b sensor.Target) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// feedCheck wraps each monitor's feed so that every query the rig makes
// is checked, at the moment it is made, against a full scan of the
// fleet: the indexed targets within the observer's effective range
// must equal the full scan's, and the feed must never serve the
// observer itself or a member twice.
type feedCheck struct {
	queries, seen int
}

func (fc *feedCheck) wrap(t *testing.T, f *fleet, monitors []*agent.ObstacleMonitor) {
	t.Helper()
	if len(monitors) == 0 {
		t.Fatal("setup: rig has no obstacle monitors")
	}
	for _, m := range monitors {
		feed, self := m.Neighbors, m.C
		m.Neighbors = func() []sensor.Target {
			got := feed()
			fc.queries++
			ids := map[string]bool{}
			for _, g := range got {
				if g.ID == self.ID() || ids[g.ID] {
					t.Fatalf("%s: feed serves %s twice or itself: %v", self.ID(), g.ID, got)
				}
				ids[g.ID] = true
			}
			have, want := inRange(self, got), inRange(self, fullScan(f, self))
			if !slices.Equal(have, want) {
				t.Fatalf("%s at %v: indexed feed sees %v, full scan %v", self.ID(), self.Body().Position(), have, want)
			}
			fc.seen += len(want)
			return got
		}
	}
}

func (fc *feedCheck) done(t *testing.T) {
	t.Helper()
	t.Logf("%d feed queries checked, %d targets in range", fc.queries, fc.seen)
	if fc.queries == 0 || fc.seen == 0 {
		t.Errorf("%d queries saw %d targets in range: nothing was checked", fc.queries, fc.seen)
	}
}

func haulMonitors(hauls []*agent.HaulAgent) []*agent.ObstacleMonitor {
	var out []*agent.ObstacleMonitor
	for _, h := range hauls {
		if m := h.Monitor(); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// TestFleetFeedMatchesFullScan runs every rig whose agents sense their
// neighbours with each feed query checked against the full scan.
func TestFleetFeedMatchesFullScan(t *testing.T) {
	t.Run("quarry-e18-blind-victim", func(t *testing.T) {
		rig, err := NewQuarry(QuarryConfig{Pairs: 50, TrucksPerPair: 1, Policy: PolicyBaseline, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		victim := rig.Trucks[0]
		victim.Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
		victim.ApplyFault(fault.Fault{ID: "blind", Target: victim.ID(),
			Kind: fault.KindSensor, Severity: 1, Permanent: true})
		var fc feedCheck
		fc.wrap(t, &rig.fleet, haulMonitors(rig.Hauls))
		rig.Run(60 * time.Second)
		fc.done(t)
	})
	t.Run("quarry-orchestrated", func(t *testing.T) {
		rig, err := NewQuarry(QuarryConfig{Pairs: 3, TrucksPerPair: 2, Policy: PolicyOrchestrated, Seed: 7,
			Faults: []fault.Fault{{ID: "b", Target: "truck2_1", Kind: fault.KindBrake,
				Severity: 0.6, Permanent: true, At: 40 * time.Second}}})
		if err != nil {
			t.Fatal(err)
		}
		var monitors []*agent.ObstacleMonitor
		for _, p := range rig.Policies {
			if o, ok := p.(*collab.Orchestrated); ok && o.Monitor != nil {
				monitors = append(monitors, o.Monitor)
			}
		}
		var fc feedCheck
		fc.wrap(t, &rig.fleet, monitors)
		rig.Run(2 * time.Minute)
		fc.done(t)
	})
	t.Run("harbour-two-level-rain", func(t *testing.T) {
		rig, err := NewHarbour(HarbourConfig{
			Forklifts: 4, TwoLevel: true, Seed: 2,
			Weather: world.MustWeatherSchedule(
				world.WeatherChange{At: 60 * time.Second, Condition: world.Rain, TemperatureC: 2}),
		})
		if err != nil {
			t.Fatal(err)
		}
		var fc feedCheck
		fc.wrap(t, &rig.fleet, haulMonitors(rig.Hauls))
		rig.Run(2 * time.Minute)
		fc.done(t)
	})
	t.Run("highway-agreement-seeking", func(t *testing.T) {
		rig, err := NewHighway(HighwayConfig{NCars: 5, Policy: PolicyAgreementSeeking, Seed: 3, Loss: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if err := rig.Injector.Schedule(rig.PerceptionFault(15*time.Second, 15, true)); err != nil {
			t.Fatal(err)
		}
		var fc feedCheck
		fc.wrap(t, &rig.fleet, haulMonitors(rig.Hauls))
		rig.Run(90 * time.Second)
		fc.done(t)
	})
	t.Run("custom-site", func(t *testing.T) {
		f, err := os.Open(filepath.Join("..", "..", "examples", "custom", "site.json"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rig, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		var hauls []*agent.HaulAgent
		for _, c := range rig.Constituents {
			hauls = append(hauls, rig.Hauls[c.ID()])
		}
		var fc feedCheck
		fc.wrap(t, &rig.fleet, haulMonitors(hauls))
		rig.Run(2 * time.Minute)
		fc.done(t)
	})
}

// TestFleetFeedAllocationFree pins the feed at zero allocations once
// its scratch has grown, for a query that rebuilds the index as well
// as for one that reuses it.
func TestFleetFeedAllocationFree(t *testing.T) {
	rig, err := NewQuarry(QuarryConfig{Pairs: 15, TrucksPerPair: 1, Policy: PolicyBaseline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(20 * time.Second)
	feed := rig.neighbours(rig.Trucks[3])
	if len(feed()) == 0 {
		t.Fatal("setup: the feed serves no neighbours")
	}
	if allocs := testing.AllocsPerRun(100, func() { feed() }); allocs != 0 {
		t.Errorf("indexed query allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { rig.moves++; feed() }); allocs != 0 {
		t.Errorf("query with rebuild allocates %v times, want 0", allocs)
	}
}

// TestFleetFeedAloneBuildsNoIndex: a fleet of one has no neighbours,
// and serving that builds no index (E1's highway is a one-car fleet).
func TestFleetFeedAloneBuildsNoIndex(t *testing.T) {
	rig, err := NewHighway(HighwayConfig{NCars: 1, Policy: PolicyBaseline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(10 * time.Second)
	if got := rig.neighbours(rig.Ego)(); len(got) != 0 {
		t.Errorf("lone car senses %v", got)
	}
	if rig.grid != nil {
		t.Error("a one-member fleet built its sensing index")
	}
}
