package world

import (
	"testing"

	"coopmrm/internal/geom"
)

// Restore rewinds what a run changes — the weather and zone occupancy
// — keeps the warmed route cache, and refuses to paper over a
// topology change.
func TestWorldRestore(t *testing.T) {
	w := New()
	w.MustAddZone(Zone{ID: "pk", Kind: ZoneParking, Capacity: 1, Area: rect(0, 0, 20, 20)})
	g := w.Graph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("b", geom.V(100, 0))
	g.MustConnect("a", "b")
	weather := w.Weather
	snap := w.Snapshot()

	w.Weather = Weather{Condition: Snow, TemperatureC: -5}
	w.RegisterStop("pk")
	if _, err := g.ShortestPathWith("a", "b", Avoidance{}); err != nil {
		t.Fatal(err)
	}
	w.Restore(snap)
	if w.Weather != weather {
		t.Errorf("weather after Restore = %+v, want %+v", w.Weather, weather)
	}
	if n := w.Occupancy("pk"); n != 0 || !w.HasCapacity("pk") {
		t.Errorf("occupancy after Restore = %d, want 0", n)
	}
	hits0, miss0 := g.RouteCacheStats()
	if _, err := g.ShortestPathWith("a", "b", Avoidance{}); err != nil {
		t.Fatal(err)
	}
	if hits, miss := g.RouteCacheStats(); hits != hits0+1 || miss != miss0 {
		t.Errorf("route query after Restore: hits %d -> %d, misses %d -> %d; want the cached route", hits0, hits, miss0, miss)
	}

	mustPanic := func(name string, mutate func(*World)) {
		t.Helper()
		w := New()
		snap := w.Snapshot()
		mutate(w)
		defer func() {
			if recover() == nil {
				t.Errorf("Restore after %s did not panic", name)
			}
		}()
		w.Restore(snap)
	}
	mustPanic("AddNode", func(w *World) { w.Graph().AddNode("c", geom.V(0, 0)) })
	mustPanic("AddZone", func(w *World) { w.MustAddZone(Zone{ID: "z", Kind: ZoneLane, Area: rect(0, 0, 1, 1)}) })
}
