package world

import (
	"errors"
	"math"
	"testing"
	"time"

	"coopmrm/internal/geom"
)

func rect(x0, y0, x1, y1 float64) geom.Rect {
	return geom.NewRect(geom.V(x0, y0), geom.V(x1, y1))
}

func TestZoneKindString(t *testing.T) {
	if ZoneLane.String() != "lane" || ZoneParking.String() != "parking" {
		t.Error("ZoneKind names wrong")
	}
	if ZoneKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestZoneStopRiskOrdering(t *testing.T) {
	// The safety ordering the paper's examples rely on:
	// parking < pocket < shoulder < lane < tunnel.
	if !(ZoneParking.StopRisk() < ZonePocket.StopRisk() &&
		ZonePocket.StopRisk() < ZoneShoulder.StopRisk() &&
		ZoneShoulder.StopRisk() < ZoneLane.StopRisk() &&
		ZoneLane.StopRisk() < ZoneTunnel.StopRisk()) {
		t.Error("stop-risk ordering violated")
	}
}

func TestZoneRiskOverride(t *testing.T) {
	z := Zone{ID: "z", Kind: ZoneLane, Risk: 0.05}
	if z.StopRisk() != 0.05 {
		t.Errorf("override risk = %v", z.StopRisk())
	}
	z2 := Zone{ID: "z2", Kind: ZoneLane, Risk: -1}
	if z2.StopRisk() != ZoneLane.StopRisk() {
		t.Error("default risk not applied")
	}
}

func TestWorldZones(t *testing.T) {
	w := New()
	w.MustAddZone(Zone{ID: "lane1", Kind: ZoneLane, Area: rect(0, 0, 100, 4)})
	w.MustAddZone(Zone{ID: "sh1", Kind: ZoneShoulder, Area: rect(0, 4, 100, 7)})
	w.MustAddZone(Zone{ID: "p1", Kind: ZoneParking, Area: rect(110, 0, 130, 20)})

	if err := w.AddZone(Zone{ID: "lane1"}); err == nil {
		t.Error("duplicate zone should error")
	}
	if err := w.AddZone(Zone{}); err == nil {
		t.Error("empty ID should error")
	}
	if z, ok := w.Zone("sh1"); !ok || z.Kind != ZoneShoulder {
		t.Error("Zone lookup failed")
	}
	if got := len(w.Zones()); got != 3 {
		t.Errorf("Zones = %d", got)
	}
	if got := len(w.ZonesOfKind(ZoneLane)); got != 1 {
		t.Errorf("ZonesOfKind = %d", got)
	}
	at := w.ZoneAt(geom.V(50, 2))
	if len(at) != 1 || at[0].ID != "lane1" {
		t.Errorf("ZoneAt = %+v", at)
	}
}

func TestNearestZoneOfKind(t *testing.T) {
	w := New()
	w.MustAddZone(Zone{ID: "pk-far", Kind: ZoneParking, Area: rect(200, 0, 210, 10)})
	w.MustAddZone(Zone{ID: "pk-near", Kind: ZoneParking, Area: rect(20, 0, 30, 10)})
	z, ok := w.NearestZoneOfKind(geom.V(0, 5), ZoneParking)
	if !ok || z.ID != "pk-near" {
		t.Errorf("nearest = %+v ok=%v", z, ok)
	}
	if _, ok := w.NearestZoneOfKind(geom.V(0, 0), ZoneTunnel); ok {
		t.Error("no tunnel should exist")
	}
}

func TestStopRiskAt(t *testing.T) {
	w := New()
	w.MustAddZone(Zone{ID: "lane1", Kind: ZoneLane, Area: rect(0, 0, 100, 4)})
	w.MustAddZone(Zone{ID: "pk", Kind: ZoneParking, Area: rect(50, 0, 60, 4)})
	// Overlapping zones: minimum risk wins.
	if r := w.StopRiskAt(geom.V(55, 2)); r != ZoneParking.StopRisk() {
		t.Errorf("overlap risk = %v", r)
	}
	if r := w.StopRiskAt(geom.V(500, 500)); r != 0.85 {
		t.Errorf("outside risk = %v", r)
	}
	// Probes, constituents and the planner call it every tick and for
	// every candidate, so it must not allocate, even where zones
	// overlap.
	if allocs := testing.AllocsPerRun(100, func() { w.StopRiskAt(geom.V(55, 2)) }); allocs != 0 {
		t.Errorf("StopRiskAt allocates %.1f times per call, want 0", allocs)
	}
	w.Weather = Weather{Condition: Snow, TemperatureC: -5}
	if r := w.StopRiskAt(geom.V(55, 2)); r <= ZoneParking.StopRisk() {
		t.Error("weather should raise risk")
	}
}

func TestRouteGraphShortestPath(t *testing.T) {
	g := NewRouteGraph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("b", geom.V(10, 0))
	g.AddNode("c", geom.V(10, 10))
	g.AddNode("d", geom.V(0, 10))
	g.MustConnect("a", "b")
	g.MustConnect("b", "c")
	g.MustConnect("a", "d")
	g.MustConnect("d", "c")

	route, err := g.ShortestPathWith("a", "c", Avoidance{})
	if err != nil {
		t.Fatal(err)
	}
	// Both routes are length 20; tie-break must be deterministic.
	r2, err := g.ShortestPathWith("a", "c", Avoidance{})
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 || len(r2) != 3 || route[1] != r2[1] {
		t.Errorf("routes = %v vs %v", route, r2)
	}
}

func TestRouteGraphBlockedDestinationReachable(t *testing.T) {
	g := NewRouteGraph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("b", geom.V(10, 0))
	g.MustConnect("a", "b")
	if _, err := g.ShortestPathWith("a", "b", Avoidance{Nodes: map[string]bool{"b": true}}); err != nil {
		t.Errorf("avoided endpoint should still be reachable: %v", err)
	}
}

func TestRouteGraphErrors(t *testing.T) {
	g := NewRouteGraph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("b", geom.V(100, 0))
	if _, err := g.ShortestPathWith("a", "zzz", Avoidance{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
	if _, err := g.ShortestPathWith("a", "b", Avoidance{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("disconnected err = %v", err)
	}
	if err := g.Connect("a", "zzz"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("connect err = %v", err)
	}
	if p, err := g.ShortestPathWith("a", "a", Avoidance{}); err != nil || len(p) != 1 {
		t.Errorf("self path = %v err %v", p, err)
	}
}

func TestRouteGraphPathBetween(t *testing.T) {
	g := NewRouteGraph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("b", geom.V(30, 40))
	g.MustConnect("a", "b")
	p, err := g.PathBetween("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Len()-50) > 1e-9 {
		t.Errorf("path length = %v, want 50", p.Len())
	}
	if p.Name() != "a->b" {
		t.Errorf("path name = %q", p.Name())
	}
}

func TestNearestNode(t *testing.T) {
	g := NewRouteGraph()
	if _, ok := g.NearestNode(geom.V(0, 0)); ok {
		t.Error("empty graph has no nearest")
	}
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("b", geom.V(10, 0))
	id, ok := g.NearestNode(geom.V(7, 0))
	if !ok || id != "b" {
		t.Errorf("nearest = %q", id)
	}
}

func TestWeatherFactors(t *testing.T) {
	if (Weather{Condition: Clear}).PerceptionFactor() != 1 {
		t.Error("clear perception factor must be 1")
	}
	if (Weather{Condition: HeavyRain}).PerceptionFactor() >= (Weather{Condition: Rain}).PerceptionFactor() {
		t.Error("heavy rain must attenuate more than rain")
	}
	warm := Weather{Condition: Rain, TemperatureC: 15}
	cold := Weather{Condition: Rain, TemperatureC: 2}
	if cold.SlipRisk() <= warm.SlipRisk() {
		t.Error("cold rain must be more slippery (paper's harbour trigger)")
	}
	if (Weather{Condition: Clear, TemperatureC: -10}).SlipRisk() != 0 {
		t.Error("clear cold has no slip risk in this model")
	}
	if Condition(42).String() == "" {
		t.Error("unknown condition should render")
	}
}

func TestWeatherSchedule(t *testing.T) {
	w := New()
	s := MustWeatherSchedule(
		WeatherChange{At: 10 * time.Second, Condition: Rain, TemperatureC: 8},
		WeatherChange{At: 20 * time.Second, Condition: HeavyRain, TemperatureC: 3},
	)
	if got := s.Apply(w, 5*time.Second); len(got) != 0 {
		t.Errorf("premature apply = %v", got)
	}
	if got := s.Apply(w, 10*time.Second); len(got) != 1 || w.Weather.Condition != Rain {
		t.Errorf("apply at 10s = %v weather %v", got, w.Weather)
	}
	if got := s.Apply(w, time.Minute); len(got) != 1 || w.Weather.Condition != HeavyRain {
		t.Errorf("apply at 60s = %v weather %v", got, w.Weather)
	}
	if !s.Done() {
		t.Error("schedule should be done")
	}
	if _, err := NewWeatherSchedule(
		WeatherChange{At: 20 * time.Second},
		WeatherChange{At: 10 * time.Second},
	); err == nil {
		t.Error("out-of-order schedule should error")
	}
}

func TestZoneCapacityAndOccupancy(t *testing.T) {
	w := New()
	w.MustAddZone(Zone{ID: "pk", Kind: ZoneParking, Capacity: 2,
		Area: rect(0, 0, 20, 20)})
	w.MustAddZone(Zone{ID: "pk2", Kind: ZoneParking,
		Area: rect(100, 0, 120, 20)})

	if !w.HasCapacity("pk") {
		t.Fatal("fresh zone should have capacity")
	}
	w.RegisterStop("pk")
	w.RegisterStop("pk")
	if w.HasCapacity("pk") {
		t.Error("zone at capacity should refuse")
	}
	if w.Occupancy("pk") != 2 {
		t.Errorf("occupancy = %d", w.Occupancy("pk"))
	}
	// Unlimited zone never fills.
	for i := 0; i < 10; i++ {
		w.RegisterStop("pk2")
	}
	if !w.HasCapacity("pk2") {
		t.Error("capacity-0 zone must be unlimited")
	}
	// The nearest AVAILABLE zone skips the full one.
	z, ok := w.NearestAvailableZoneOfKind(geom.V(0, 0), ZoneParking)
	if !ok || z.ID != "pk2" {
		t.Errorf("available = %v ok=%v, want pk2", z.ID, ok)
	}
	w.ReleaseStop("pk")
	if !w.HasCapacity("pk") {
		t.Error("release should restore capacity")
	}
	z, _ = w.NearestAvailableZoneOfKind(geom.V(0, 0), ZoneParking)
	if z.ID != "pk" {
		t.Errorf("available after release = %v", z.ID)
	}
	// Unknown zones: no capacity, releases are no-ops.
	if w.HasCapacity("ghost") {
		t.Error("unknown zone has no capacity")
	}
	w.ReleaseStop("ghost")
	w.ReleaseStop("pk")
	w.ReleaseStop("pk") // extra release must not go negative
	if w.Occupancy("pk") != 0 {
		t.Errorf("occupancy = %d", w.Occupancy("pk"))
	}
}

func TestParseZoneKindAndCondition(t *testing.T) {
	k, err := ParseZoneKind("pocket")
	if err != nil || k != ZonePocket {
		t.Errorf("ParseZoneKind = %v, %v", k, err)
	}
	if _, err := ParseZoneKind("volcano"); err == nil {
		t.Error("unknown zone kind should error")
	}
	c, err := ParseCondition("heavy_rain")
	if err != nil || c != HeavyRain {
		t.Errorf("ParseCondition = %v, %v", c, err)
	}
	if _, err := ParseCondition("meteor"); err == nil {
		t.Error("unknown condition should error")
	}
	// Round trip across all kinds.
	for _, k := range []ZoneKind{ZoneLane, ZoneShoulder, ZonePocket, ZoneParking,
		ZoneLoading, ZoneUnloading, ZoneWorkArea, ZoneTunnel, ZoneEvacuation, ZoneStorage} {
		got, err := ParseZoneKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
}
