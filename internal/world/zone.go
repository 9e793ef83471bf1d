// Package world models the static environment a cooperative or
// collaborative system operates in: named zones (lanes, shoulders,
// pockets, parking areas, work sites), a route graph for path
// planning and rerouting, and a weather process that drives
// ODD-relevant conditions.
package world

import (
	"fmt"
	"sort"

	"coopmrm/internal/geom"
)

// ZoneKind classifies a named region of the world.
type ZoneKind int

// Zone kinds. Risk ordering (for stopping) roughly follows the paper's
// discussion: stopping in an active lane is worst, a designated
// parking/rest area is best.
const (
	ZoneLane ZoneKind = iota + 1
	ZoneShoulder
	ZonePocket     // passing pocket in a narrow tunnel
	ZoneParking    // designated parking / rest stop / safe area
	ZoneLoading    // where a digger or crane loads a carrier
	ZoneUnloading  // deposit / unloading destination
	ZoneWorkArea   // generic work region
	ZoneTunnel     // narrow section: stopping blocks passage
	ZoneEvacuation // safe zone outside a hazard (e.g. mine fire muster)
	ZoneStorage    // container stacking area
)

var zoneKindNames = map[ZoneKind]string{
	ZoneLane:       "lane",
	ZoneShoulder:   "shoulder",
	ZonePocket:     "pocket",
	ZoneParking:    "parking",
	ZoneLoading:    "loading",
	ZoneUnloading:  "unloading",
	ZoneWorkArea:   "work_area",
	ZoneTunnel:     "tunnel",
	ZoneEvacuation: "evacuation",
	ZoneStorage:    "storage",
}

// String implements fmt.Stringer.
func (k ZoneKind) String() string {
	if s, ok := zoneKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("zone_kind(%d)", int(k))
}

// ParseZoneKind resolves a zone-kind name ("lane", "pocket", ...).
func ParseZoneKind(name string) (ZoneKind, error) {
	for k, n := range zoneKindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("world: unknown zone kind %q", name)
}

// StopRisk returns the default residual risk of being stopped in a
// zone of this kind, in [0, 1]. Lower is safer. These defaults encode
// the ordering used throughout the paper's examples; scenarios may
// override per zone.
func (k ZoneKind) StopRisk() float64 {
	switch k {
	case ZoneLane:
		return 0.9
	case ZoneTunnel:
		return 0.95
	case ZoneShoulder:
		return 0.4
	case ZonePocket:
		return 0.3
	case ZoneWorkArea:
		return 0.5
	case ZoneLoading, ZoneUnloading, ZoneStorage:
		return 0.35
	case ZoneParking, ZoneEvacuation:
		return 0.1
	default:
		return 0.7
	}
}

// Zone is a named rectangular region.
type Zone struct {
	ID       string
	Kind     ZoneKind
	Area     geom.Rect
	Risk     float64 // residual stop risk override; <0 means use Kind default
	Capacity int     // max constituents stopped here; 0 means unlimited
}

// StopRisk returns the effective residual stop risk of this zone.
func (z Zone) StopRisk() float64 {
	if z.Risk >= 0 {
		return z.Risk
	}
	return z.Kind.StopRisk()
}

// Center returns the zone centre point.
func (z Zone) Center() geom.Vec2 { return z.Area.Center() }

// Contains reports whether p is inside the zone.
func (z Zone) Contains(p geom.Vec2) bool { return z.Area.Contains(p) }

// World is the static environment plus the weather process state.
type World struct {
	zones    map[string]Zone
	order    []string // zone IDs in insertion order for determinism
	graph    *RouteGraph
	occupied map[string]int // stopped constituents per zone
	Weather  Weather
}

// New returns an empty world with clear weather and an empty graph.
func New() *World {
	return &World{
		zones:    make(map[string]Zone),
		graph:    NewRouteGraph(),
		occupied: make(map[string]int),
		Weather:  Weather{Condition: Clear, TemperatureC: 15},
	}
}

// AddZone inserts a zone. A zero Risk field means "use kind default";
// to force zero risk set a small positive value. Returns an error on
// duplicate IDs.
func (w *World) AddZone(z Zone) error {
	if z.ID == "" {
		return fmt.Errorf("world: zone with empty ID")
	}
	if _, dup := w.zones[z.ID]; dup {
		return fmt.Errorf("world: duplicate zone ID %q", z.ID)
	}
	if z.Risk == 0 {
		z.Risk = -1 // sentinel: kind default
	}
	w.zones[z.ID] = z
	w.order = append(w.order, z.ID)
	return nil
}

// MustAddZone is AddZone that panics on error, for static scenario
// construction.
func (w *World) MustAddZone(z Zone) {
	if err := w.AddZone(z); err != nil {
		panic(err)
	}
}

// Zone returns the zone with the given ID.
func (w *World) Zone(id string) (Zone, bool) {
	z, ok := w.zones[id]
	return z, ok
}

// Zones returns all zones in insertion order.
func (w *World) Zones() []Zone {
	out := make([]Zone, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.zones[id])
	}
	return out
}

// ZonesOfKind returns all zones of the given kind, in insertion order.
func (w *World) ZonesOfKind(kind ZoneKind) []Zone {
	var out []Zone
	for _, id := range w.order {
		if z := w.zones[id]; z.Kind == kind {
			out = append(out, z)
		}
	}
	return out
}

// ZoneAt returns the zones containing p, in insertion order.
func (w *World) ZoneAt(p geom.Vec2) []Zone {
	var out []Zone
	for _, id := range w.order {
		if z := w.zones[id]; z.Contains(p) {
			out = append(out, z)
		}
	}
	return out
}

// HasZoneKindAt reports whether a zone of the given kind contains p.
// It is the allocation-free membership companion of ZoneAt: per-tick
// callers (risk-relevance probes, obstacle monitors) only test kinds,
// and building the zone slice for that was a measurable share of the
// tick loop's garbage.
func (w *World) HasZoneKindAt(kind ZoneKind, p geom.Vec2) bool {
	for _, id := range w.order {
		if z := w.zones[id]; z.Kind == kind && z.Contains(p) {
			return true
		}
	}
	return false
}

// NearestZoneOfKind returns the zone of the given kind nearest to p
// (by boundary distance) and whether one exists. Ties break by lower
// zone ID for determinism.
func (w *World) NearestZoneOfKind(p geom.Vec2, kind ZoneKind) (Zone, bool) {
	candidates := w.ZonesOfKind(kind)
	if len(candidates) == 0 {
		return Zone{}, false
	}
	sort.Slice(candidates, func(i, j int) bool {
		di, dj := candidates[i].Area.Dist(p), candidates[j].Area.Dist(p)
		if di != dj {
			return di < dj
		}
		return candidates[i].ID < candidates[j].ID
	})
	return candidates[0], true
}

// NearestAvailableZoneOfKind behaves like NearestZoneOfKind but skips
// zones whose stop capacity is exhausted — a full rest stop cannot be
// the target of another MRM.
func (w *World) NearestAvailableZoneOfKind(p geom.Vec2, kind ZoneKind) (Zone, bool) {
	candidates := w.ZonesOfKind(kind)
	available := candidates[:0]
	for _, z := range candidates {
		if w.HasCapacity(z.ID) {
			available = append(available, z)
		}
	}
	if len(available) == 0 {
		return Zone{}, false
	}
	sort.Slice(available, func(i, j int) bool {
		di, dj := available[i].Area.Dist(p), available[j].Area.Dist(p)
		if di != dj {
			return di < dj
		}
		return available[i].ID < available[j].ID
	})
	return available[0], true
}

// HasCapacity reports whether the zone can accept another stopped
// constituent (zones with Capacity 0 are unlimited).
func (w *World) HasCapacity(zoneID string) bool {
	z, ok := w.zones[zoneID]
	if !ok {
		return false
	}
	return z.Capacity <= 0 || w.occupied[zoneID] < z.Capacity
}

// RegisterStop records a constituent stopping in the zone (MRC
// reached there).
func (w *World) RegisterStop(zoneID string) {
	if _, ok := w.zones[zoneID]; ok {
		w.occupied[zoneID]++
	}
}

// ReleaseStop records a stopped constituent leaving the zone
// (recovery).
func (w *World) ReleaseStop(zoneID string) {
	if w.occupied[zoneID] > 0 {
		w.occupied[zoneID]--
	}
}

// Occupancy returns the number of registered stops in the zone.
func (w *World) Occupancy(zoneID string) int { return w.occupied[zoneID] }

// Graph returns the world's route graph.
func (w *World) Graph() *RouteGraph { return w.graph }

// StopRiskAt returns the residual stop risk at point p: the minimum
// risk over zones containing p, or a high default (0.85) outside all
// zones. Weather adds its risk modifier.
func (w *World) StopRiskAt(p geom.Vec2) float64 {
	risk := 0.85
	for _, z := range w.ZoneAt(p) {
		if r := z.StopRisk(); r < risk {
			risk = r
		}
	}
	risk += w.Weather.RiskModifier()
	if risk > 1 {
		risk = 1
	}
	return risk
}
