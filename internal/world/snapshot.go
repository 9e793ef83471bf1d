package world

import "maps"

// Warm-rig world reuse. The pooled quarry rig's world — zone set,
// route graph topology, memoized route cache — is seed-invariant:
// construction builds it once and every seed of a campaign would
// rebuild the exact same thing. Snapshot captures the little mutable
// state layered on top (weather, graph blocking), and Restore rewinds
// it, keeping the expensive structures — including the warmed route
// cache when no blocking diverged — for the next seed.

// Snapshot is the mutable-state capture of a freshly constructed
// world, taken by NewQuarry right after construction and replayed by
// QuarryRig.Reset.
type Snapshot struct {
	weather     Weather
	blockedNode map[string]bool
	blockedEdge map[[2]string]bool
	nodes       int // topology integrity check: Restore cannot undo
	zones       int // AddNode/Connect/AddZone made after the snapshot
}

// Snapshot captures the world's mutable state: current weather and the
// graph's blocked nodes/edges, plus topology counts so a Restore after
// an unsupported topology mutation fails loudly instead of silently
// diverging from a fresh construction.
func (w *World) Snapshot() Snapshot {
	return Snapshot{
		weather:     w.Weather,
		blockedNode: maps.Clone(w.graph.blockedNode),
		blockedEdge: maps.Clone(w.graph.blockedEdge),
		nodes:       len(w.graph.pos),
		zones:       len(w.zones),
	}
}

// Restore rewinds the world to the snapshot: weather and graph
// blocking return to their captured values, and every zone's occupancy
// clears. The memoized route cache survives when the current blocked
// state already equals the snapshot (the common case — a seed that
// never blocked anything keeps the warmed cache for the next seed);
// when blocking diverged, the cache is invalidated so no avoid-path
// cached under a prior seed's blocks can leak into the next run.
// Panics when the topology changed since the snapshot — Restore can
// rewind state, not structure.
func (w *World) Restore(s Snapshot) {
	if len(w.graph.pos) != s.nodes || len(w.zones) != s.zones {
		panic("world: Restore after topology mutation (nodes or zones added since Snapshot)")
	}
	w.Weather = s.weather
	w.graph.restoreBlocked(s.blockedNode, s.blockedEdge)
	clear(w.occupied)
}

// restoreBlocked rewinds the blocked-node/edge sets to the snapshot.
// The route memo keys routes by (from, to, avoid) only — blocked state
// is implicit — so any divergence between the live sets and the
// snapshot invalidates the whole cache, exactly as the Block*/Unblock*
// mutators do. Equal sets keep the cache: its entries were computed
// under this exact blocked state.
func (g *RouteGraph) restoreBlocked(node map[string]bool, edge map[[2]string]bool) {
	if maps.Equal(g.blockedNode, node) && maps.Equal(g.blockedEdge, edge) {
		return
	}
	clear(g.blockedNode)
	maps.Copy(g.blockedNode, node)
	clear(g.blockedEdge)
	maps.Copy(g.blockedEdge, edge)
	g.invalidateRoutes()
}
