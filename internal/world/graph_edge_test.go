package world

import (
	"errors"
	"testing"

	"coopmrm/internal/geom"
)

// diamond builds a -- m -- b with an alternate a -- alt -- b.
func diamond() *RouteGraph {
	g := NewRouteGraph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("m", geom.V(100, 0))
	g.AddNode("b", geom.V(200, 0))
	g.AddNode("alt", geom.V(100, 80))
	g.MustConnect("a", "m")
	g.MustConnect("m", "b")
	g.MustConnect("a", "alt")
	g.MustConnect("alt", "b")
	return g
}

func TestAvoidanceEdges(t *testing.T) {
	g := diamond()
	route, err := g.ShortestPathWith("a", "b", Avoidance{})
	if err != nil || route[1] != "m" {
		t.Fatalf("nominal route = %v err %v", route, err)
	}
	av := Avoidance{Edges: map[[2]string]bool{{"a", "m"}: true}}
	route, err = g.ShortestPathWith("a", "b", av)
	if err != nil {
		t.Fatal(err)
	}
	if route[1] != "alt" {
		t.Errorf("edge-avoided route = %v, want via alt", route)
	}
	// Only one direction stored: AvoidsEdge must match both.
	if !av.AvoidsEdge("m", "a") || !av.AvoidsEdge("a", "m") {
		t.Error("AvoidsEdge must be symmetric")
	}
	if av.AvoidsEdge("m", "b") {
		t.Error("unrelated edge reported avoided")
	}
}

func TestAvoidanceEdgesBlockBothSides(t *testing.T) {
	g := diamond()
	av := Avoidance{Edges: map[[2]string]bool{
		{"a", "m"}:   true,
		{"a", "alt"}: true,
	}}
	if _, err := g.ShortestPathWith("a", "b", av); err == nil {
		t.Error("both exits avoided: route should not exist")
	}
}

func TestAvoidanceNodesAndEdgesCompose(t *testing.T) {
	g := diamond()
	av := Avoidance{
		Nodes: map[string]bool{"m": true},
		Edges: map[[2]string]bool{{"alt", "b"}: true},
	}
	if _, err := g.ShortestPathWith("a", "b", av); err == nil {
		t.Error("node m avoided and edge alt-b avoided: no route should remain")
	}
	// Endpoint exemption still applies to avoided nodes.
	route, err := g.ShortestPathWith("a", "m", Avoidance{Nodes: map[string]bool{"m": true}})
	if err != nil || route[len(route)-1] != "m" {
		t.Errorf("avoided endpoint should be reachable: %v err %v", route, err)
	}
}

func TestNearestEdge(t *testing.T) {
	g := diamond()
	a, b, d, ok := g.NearestEdge(geom.V(50, 5))
	if !ok {
		t.Fatal("edge expected")
	}
	if a != "a" || b != "m" || d != 5 {
		t.Errorf("nearest = %s-%s d=%v, want a-m d=5", a, b, d)
	}
	// Near the alternate drift.
	a, b, _, _ = g.NearestEdge(geom.V(60, 60))
	if !(a == "a" && b == "alt") {
		t.Errorf("nearest = %s-%s, want a-alt", a, b)
	}
	// Empty graph.
	if _, _, _, ok := NewRouteGraph().NearestEdge(geom.V(0, 0)); ok {
		t.Error("empty graph has no edges")
	}
}

func TestNearestEdgeEndpointOrder(t *testing.T) {
	g := diamond()
	a, b, _, _ := g.NearestEdge(geom.V(100, -3))
	if a >= b {
		t.Errorf("endpoints not lexicographic: %s-%s", a, b)
	}
}

// Repeat queries against an unchanged graph must come from the route
// cache; every topology mutation must invalidate it.
func TestRouteCacheHitsAndInvalidation(t *testing.T) {
	g := diamond()
	r1, err := g.ShortestPathWith("a", "b", Avoidance{})
	if err != nil {
		t.Fatal(err)
	}
	_, miss0 := g.RouteCacheStats()
	r2, err := g.ShortestPathWith("a", "b", Avoidance{})
	if err != nil {
		t.Fatal(err)
	}
	hits, miss := g.RouteCacheStats()
	if hits != 1 || miss != miss0 {
		t.Errorf("stats after repeat query = %d hits %d misses, want 1 hit and no new miss", hits, miss)
	}
	if len(r1) != len(r2) || r1[1] != r2[1] {
		t.Errorf("cached route differs: %v vs %v", r1, r2)
	}
	// The caller's copy is private: mutating it must not poison the
	// cache.
	r2[1] = "poisoned"
	r3, _ := g.ShortestPathWith("a", "b", Avoidance{})
	if r3[1] != "m" {
		t.Errorf("cache poisoned through returned slice: %v", r3)
	}
	// AddNode invalidates: a query for a node that did not exist is
	// answered afresh once the node is added, not from the cached
	// ErrUnknownNode.
	if _, err := g.ShortestPathWith("a", "x", Avoidance{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("query before AddNode: err = %v, want ErrUnknownNode", err)
	}
	g.AddNode("x", geom.V(300, 0))
	_, miss0 = g.RouteCacheStats()
	if _, err := g.ShortestPathWith("a", "x", Avoidance{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("query after AddNode: err = %v, want ErrNoRoute (stale cache?)", err)
	}
	if _, miss = g.RouteCacheStats(); miss != miss0+1 {
		t.Errorf("query after AddNode: misses %d -> %d, want a fresh plan", miss0, miss)
	}
	// Connect invalidates: the cached ErrNoRoute gives way to the new
	// edge's route.
	g.MustConnect("b", "x")
	route, err := g.ShortestPathWith("a", "x", Avoidance{})
	if err != nil {
		t.Fatalf("query after Connect: %v (stale cache?)", err)
	}
	if want := []string{"a", "m", "b", "x"}; len(route) != len(want) || route[1] != "m" || route[3] != "x" {
		t.Errorf("route after Connect = %v, want %v", route, want)
	}
}

// Distinct avoidance sets are distinct cache entries; equivalent ones
// (edge direction, duplicate spellings) share one.
func TestRouteCacheAvoidanceKeying(t *testing.T) {
	g := diamond()
	direct, _ := g.ShortestPathWith("a", "b", Avoidance{})
	avoided, _ := g.ShortestPathWith("a", "b", Avoidance{Edges: map[[2]string]bool{{"a", "m"}: true}})
	if direct[1] != "m" || avoided[1] != "alt" {
		t.Fatalf("routes = %v / %v", direct, avoided)
	}
	// The flipped edge spelling and a redundant duplicate must hit the
	// same cache entry.
	hits0, _ := g.RouteCacheStats()
	again, _ := g.ShortestPathWith("a", "b", Avoidance{Edges: map[[2]string]bool{
		{"m", "a"}: true,
		{"a", "m"}: true,
	}})
	hits, _ := g.RouteCacheStats()
	if hits != hits0+1 {
		t.Errorf("equivalent avoidance missed the cache: hits %d -> %d", hits0, hits)
	}
	if again[1] != "alt" {
		t.Errorf("route = %v", again)
	}
	// Cached errors are cached too: an unroutable query repeats from
	// the cache with the same error.
	blockAll := Avoidance{Edges: map[[2]string]bool{{"a", "m"}: true, {"a", "alt"}: true}}
	_, err1 := g.ShortestPathWith("a", "b", blockAll)
	hits0, _ = g.RouteCacheStats()
	_, err2 := g.ShortestPathWith("a", "b", blockAll)
	hits, _ = g.RouteCacheStats()
	if !errors.Is(err1, ErrNoRoute) || !errors.Is(err2, ErrNoRoute) {
		t.Errorf("errors = %v / %v, want ErrNoRoute", err1, err2)
	}
	if hits != hits0+1 {
		t.Error("error result not cached")
	}
}

func TestPathBetweenWith(t *testing.T) {
	g := diamond()
	p, err := g.PathBetweenWith("a", "b", Avoidance{Edges: map[[2]string]bool{{"a", "m"}: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Via alt: 2 * sqrt(100^2 + 80^2) ~ 256.1 > direct 200.
	if p.Len() < 250 {
		t.Errorf("avoided path length = %v, want the detour", p.Len())
	}
}
