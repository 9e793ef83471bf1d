package world

// Warm-rig world reuse. The pooled quarry rig's world — zone set,
// route graph topology, memoized route cache — is seed-invariant:
// construction builds it once and every seed of a campaign would
// rebuild the exact same thing. Snapshot captures the little mutable
// state layered on top (the weather), and Restore rewinds it together
// with zone occupancy, keeping the expensive structures — including
// the warmed route cache — for the next seed.

// Snapshot is the mutable-state capture of a freshly constructed
// world, taken by NewQuarry right after construction and replayed by
// QuarryRig.Reset.
type Snapshot struct {
	weather Weather
	nodes   int // topology integrity check: Restore cannot undo
	zones   int // AddNode/AddZone made after the snapshot
}

// Snapshot captures the world's mutable state, the current weather,
// plus topology counts so a Restore after an unsupported topology
// mutation fails loudly instead of silently diverging from a fresh
// construction.
func (w *World) Snapshot() Snapshot {
	return Snapshot{
		weather: w.Weather,
		nodes:   len(w.graph.pos),
		zones:   len(w.zones),
	}
}

// Restore rewinds the world to the snapshot: the weather returns to
// its captured value and every zone's occupancy clears. The memoized
// route cache always survives: a cached route depends only on the
// topology and the query's avoidance, and neither is state a run
// leaves behind. Panics when the topology changed since the snapshot —
// Restore can rewind state, not structure.
func (w *World) Restore(s Snapshot) {
	if len(w.graph.pos) != s.nodes || len(w.zones) != s.zones {
		panic("world: Restore after topology mutation (nodes or zones added since Snapshot)")
	}
	w.Weather = s.weather
	clear(w.occupied)
}
