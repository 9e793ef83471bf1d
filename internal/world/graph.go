package world

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"

	"coopmrm/internal/geom"
)

// Errors returned by route planning.
var (
	ErrUnknownNode = errors.New("world: unknown graph node")
	ErrUnknownEdge = errors.New("world: unknown graph edge")
	ErrNoRoute     = errors.New("world: no route between nodes")
)

// RouteGraph is a weighted graph over named waypoints used for route
// planning and for rerouting around blocked nodes/edges (e.g. a
// constituent stopped in a tunnel).
//
// Shortest-path queries are memoized: orchestrated sites replan the
// same origin/destination pairs on every TMS reassignment, so repeat
// queries against an unchanged graph return a cached route. Any
// topology or blocking mutation (AddNode, Connect, Block*/Unblock*)
// invalidates the whole cache.
type RouteGraph struct {
	pos         map[string]geom.Vec2
	adj         map[string]map[string]float64 // from -> to -> length
	blockedNode map[string]bool
	blockedEdge map[[2]string]bool
	nodeOrder   []string

	routeCache map[string]routeCacheEntry
	cacheHits  int
	cacheMiss  int
}

type routeCacheEntry struct {
	route []string
	err   error
}

// NewRouteGraph returns an empty graph.
func NewRouteGraph() *RouteGraph {
	return &RouteGraph{
		pos:         make(map[string]geom.Vec2),
		adj:         make(map[string]map[string]float64),
		blockedNode: make(map[string]bool),
		blockedEdge: make(map[[2]string]bool),
		routeCache:  make(map[string]routeCacheEntry),
	}
}

// invalidateRoutes drops every memoized route; called by any mutation
// that can change planning outcomes.
func (g *RouteGraph) invalidateRoutes() {
	clear(g.routeCache)
}

// AddNode inserts a waypoint. Re-adding an existing ID moves it.
func (g *RouteGraph) AddNode(id string, p geom.Vec2) {
	if _, ok := g.pos[id]; !ok {
		g.nodeOrder = append(g.nodeOrder, id)
		g.adj[id] = make(map[string]float64)
	}
	g.pos[id] = p
	g.invalidateRoutes()
}

// NodePos returns the position of a node.
func (g *RouteGraph) NodePos(id string) (geom.Vec2, bool) {
	p, ok := g.pos[id]
	return p, ok
}

// Nodes returns node IDs in insertion order.
func (g *RouteGraph) Nodes() []string {
	out := make([]string, len(g.nodeOrder))
	copy(out, g.nodeOrder)
	return out
}

// Connect adds a bidirectional edge between a and b with weight equal
// to the Euclidean distance. Both nodes must exist.
func (g *RouteGraph) Connect(a, b string) error {
	pa, ok := g.pos[a]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, a)
	}
	pb, ok := g.pos[b]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, b)
	}
	d := pa.Dist(pb)
	g.adj[a][b] = d
	g.adj[b][a] = d
	g.invalidateRoutes()
	return nil
}

// HasEdge reports whether an edge exists between a and b.
func (g *RouteGraph) HasEdge(a, b string) bool {
	_, ok := g.adj[a][b]
	return ok
}

// MustConnect is Connect that panics on error.
func (g *RouteGraph) MustConnect(a, b string) {
	if err := g.Connect(a, b); err != nil {
		panic(err)
	}
}

// ConnectChain connects consecutive node IDs with bidirectional edges.
func (g *RouteGraph) ConnectChain(ids ...string) error {
	for i := 0; i+1 < len(ids); i++ {
		if err := g.Connect(ids[i], ids[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// BlockNode marks a node unusable for routing (other than as an
// endpoint), e.g. because a constituent reached MRC there.
func (g *RouteGraph) BlockNode(id string) {
	g.blockedNode[id] = true
	g.invalidateRoutes()
}

// UnblockNode clears a node block.
func (g *RouteGraph) UnblockNode(id string) {
	delete(g.blockedNode, id)
	g.invalidateRoutes()
}

// BlockEdge marks the edge between a and b (both directions)
// unusable. Blocking an edge the graph does not have is an error,
// consistent with Connect's validation: a silent no-op here would let
// a mistyped blockage leave traffic flowing through the blocked spot.
func (g *RouteGraph) BlockEdge(a, b string) error {
	if err := g.checkEdge(a, b); err != nil {
		return err
	}
	g.blockedEdge[[2]string{a, b}] = true
	g.blockedEdge[[2]string{b, a}] = true
	g.invalidateRoutes()
	return nil
}

// UnblockEdge clears an edge block (both directions). Unblocking an
// edge the graph does not have is an error; unblocking an existing
// edge that was never blocked is a harmless no-op.
func (g *RouteGraph) UnblockEdge(a, b string) error {
	if err := g.checkEdge(a, b); err != nil {
		return err
	}
	delete(g.blockedEdge, [2]string{a, b})
	delete(g.blockedEdge, [2]string{b, a})
	g.invalidateRoutes()
	return nil
}

func (g *RouteGraph) checkEdge(a, b string) error {
	for _, id := range []string{a, b} {
		if _, ok := g.pos[id]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownNode, id)
		}
	}
	if !g.HasEdge(a, b) {
		return fmt.Errorf("%w: %q -- %q", ErrUnknownEdge, a, b)
	}
	return nil
}

// Blocked reports whether a node is currently blocked.
func (g *RouteGraph) Blocked(id string) bool { return g.blockedNode[id] }

// ShortestPath returns the node IDs of the cheapest route from a to b
// (inclusive), avoiding blocked nodes and edges. Endpoints may be
// blocked (a vehicle can leave or enter a blocked spot it occupies).
func (g *RouteGraph) ShortestPath(a, b string) ([]string, error) {
	return g.ShortestPathAvoiding(a, b, nil)
}

// Avoidance is an agent's private routing knowledge: nodes and edges
// to plan around (e.g. learnt through status-sharing), as opposed to
// the graph's own physically blocked elements.
type Avoidance struct {
	Nodes map[string]bool
	Edges map[[2]string]bool
}

// AvoidsEdge reports whether the (undirected) edge is avoided.
func (a Avoidance) AvoidsEdge(x, y string) bool {
	if a.Edges == nil {
		return false
	}
	return a.Edges[[2]string{x, y}] || a.Edges[[2]string{y, x}]
}

// ShortestPathAvoiding behaves like ShortestPath but additionally
// avoids the given node set — an agent's *private* knowledge of
// blocked spots (e.g. learnt through status-sharing), as opposed to
// the graph's own physically blocked nodes.
func (g *RouteGraph) ShortestPathAvoiding(a, b string, avoid map[string]bool) ([]string, error) {
	return g.ShortestPathWith(a, b, Avoidance{Nodes: avoid})
}

// ShortestPathWith is the general planner honouring both node and
// edge avoidance. Results are memoized per (origin, destination,
// avoidance) until the next graph mutation; callers receive a private
// copy of the route, so mutating it cannot poison the cache.
func (g *RouteGraph) ShortestPathWith(a, b string, av Avoidance) ([]string, error) {
	key := routeKey(a, b, av)
	if e, ok := g.routeCache[key]; ok {
		g.cacheHits++
		return append([]string(nil), e.route...), e.err
	}
	g.cacheMiss++
	route, err := g.shortestPath(a, b, av)
	g.routeCache[key] = routeCacheEntry{route: route, err: err}
	return append([]string(nil), route...), err
}

// RouteCacheStats returns the cumulative shortest-path cache hit and
// miss counts — an observability hook for scale experiments.
func (g *RouteGraph) RouteCacheStats() (hits, misses int) {
	return g.cacheHits, g.cacheMiss
}

// routeKey canonically encodes one planning query. Avoidance sets are
// order-normalized (sorted, undirected edges flipped to lexicographic
// order and deduplicated) so equivalent queries share a cache line.
func routeKey(a, b string, av Avoidance) string {
	var sb strings.Builder
	sb.WriteString(a)
	sb.WriteByte(0)
	sb.WriteString(b)
	if len(av.Nodes) > 0 {
		ids := make([]string, 0, len(av.Nodes))
		for id, on := range av.Nodes {
			if on {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			sb.WriteByte(1)
			sb.WriteString(id)
		}
	}
	if len(av.Edges) > 0 {
		es := make([]string, 0, len(av.Edges))
		for e, on := range av.Edges {
			if on {
				x, y := e[0], e[1]
				if x > y {
					x, y = y, x
				}
				es = append(es, x+"\x00"+y)
			}
		}
		sort.Strings(es)
		prev := ""
		for i, e := range es {
			if i > 0 && e == prev {
				continue // {a,b} and {b,a} normalize to one entry
			}
			prev = e
			sb.WriteByte(2)
			sb.WriteString(e)
		}
	}
	return sb.String()
}

func (g *RouteGraph) shortestPath(a, b string, av Avoidance) ([]string, error) {
	if _, ok := g.pos[a]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, a)
	}
	if _, ok := g.pos[b]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, b)
	}
	if a == b {
		return []string{a}, nil
	}
	dist := map[string]float64{a: 0}
	prev := map[string]string{}
	pq := &nodeQueue{{id: a, cost: 0}}
	visited := map[string]bool{}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeItem)
		if visited[cur.id] {
			continue
		}
		visited[cur.id] = true
		if cur.id == b {
			break
		}
		// Deterministic neighbour order.
		nbrs := make([]string, 0, len(g.adj[cur.id]))
		for n := range g.adj[cur.id] {
			nbrs = append(nbrs, n)
		}
		sort.Strings(nbrs)
		for _, n := range nbrs {
			if (g.blockedNode[n] || (av.Nodes != nil && av.Nodes[n])) && n != b {
				continue
			}
			if g.blockedEdge[[2]string{cur.id, n}] || av.AvoidsEdge(cur.id, n) {
				continue
			}
			c := dist[cur.id] + g.adj[cur.id][n]
			if old, ok := dist[n]; !ok || c < old {
				dist[n] = c
				prev[n] = cur.id
				heap.Push(pq, nodeItem{id: n, cost: c})
			}
		}
	}
	if !visited[b] {
		return nil, fmt.Errorf("%w: %q -> %q", ErrNoRoute, a, b)
	}
	var route []string
	for at := b; ; at = prev[at] {
		route = append(route, at)
		if at == a {
			break
		}
	}
	for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
		route[i], route[j] = route[j], route[i]
	}
	return route, nil
}

// PathBetween returns the geometric path for the cheapest route
// between two nodes.
func (g *RouteGraph) PathBetween(a, b string) (*geom.Path, error) {
	return g.PathBetweenAvoiding(a, b, nil)
}

// PathBetweenAvoiding returns the geometric path for the cheapest
// route between two nodes that also avoids the given node set.
func (g *RouteGraph) PathBetweenAvoiding(a, b string, avoid map[string]bool) (*geom.Path, error) {
	return g.PathBetweenWith(a, b, Avoidance{Nodes: avoid})
}

// PathBetweenWith returns the geometric path for the cheapest route
// honouring both node and edge avoidance.
func (g *RouteGraph) PathBetweenWith(a, b string, av Avoidance) (*geom.Path, error) {
	ids, err := g.ShortestPathWith(a, b, av)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Vec2, len(ids))
	for i, id := range ids {
		pts[i] = g.pos[id]
	}
	p, err := geom.NewPath(pts...)
	if err != nil {
		return nil, err
	}
	return p.SetName(a + "->" + b), nil
}

// NearestEdge returns the edge whose segment is closest to p, with
// the distance. Edge endpoints are returned in lexicographic order;
// ties break lexicographically. ok is false for graphs without edges.
func (g *RouteGraph) NearestEdge(p geom.Vec2) (a, b string, dist float64, ok bool) {
	best := -1.0
	for _, from := range g.nodeOrder {
		for to := range g.adj[from] {
			if from >= to {
				continue // undirected: visit each edge once
			}
			seg := geom.Segment{A: g.pos[from], B: g.pos[to]}
			d := seg.Dist(p)
			if best < 0 || d < best || (d == best && (from < a || (from == a && to < b))) {
				best = d
				a, b = from, to
			}
		}
	}
	return a, b, best, best >= 0
}

// NearestNode returns the node ID closest to p (ties break by ID).
func (g *RouteGraph) NearestNode(p geom.Vec2) (string, bool) {
	best := ""
	bestD := 0.0
	for _, id := range g.nodeOrder {
		d := g.pos[id].Dist(p)
		if best == "" || d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best, best != ""
}

type nodeItem struct {
	id   string
	cost float64
}

type nodeQueue []nodeItem

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	return q[i].id < q[j].id
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(nodeItem)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
