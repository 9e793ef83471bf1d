package world

import (
	"fmt"
	"testing"

	"coopmrm/internal/geom"
)

// gridGraph builds an n x n grid with unit spacing.
func gridGraph(n int) *RouteGraph {
	g := NewRouteGraph()
	id := func(r, c int) string { return fmt.Sprintf("n%d_%d", r, c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.AddNode(id(r, c), geom.V(float64(c)*10, float64(r)*10))
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.MustConnect(id(r, c), id(r, c+1))
			}
			if r+1 < n {
				g.MustConnect(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

func BenchmarkShortestPathGrid10(b *testing.B) {
	g := gridGraph(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPathWith("n0_0", "n9_9", Avoidance{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPathGrid30Avoiding(b *testing.B) {
	g := gridGraph(30)
	avoid := Avoidance{Nodes: map[string]bool{"n15_15": true, "n14_15": true, "n15_14": true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPathWith("n0_0", "n29_29", avoid); err != nil {
			b.Fatal(err)
		}
	}
}

// The uncached planner: every iteration invalidates the route cache,
// so this measures Dijkstra itself while the Grid10/Grid30 variants
// above measure the memoized steady state a reroute-heavy site sees.
func BenchmarkShortestPathGrid10Uncached(b *testing.B) {
	g := gridGraph(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.invalidateRoutes()
		if _, err := g.ShortestPathWith("n0_0", "n9_9", Avoidance{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestEdgeGrid30(b *testing.B) {
	g := gridGraph(30)
	p := geom.V(147, 153)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NearestEdge(p)
	}
}
