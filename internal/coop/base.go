// Package coop implements the four cooperative interaction classes of
// the paper's Table I (after SAE J3216): status-sharing,
// intent-sharing, agreement-seeking, and prescriptive. Each class is
// a per-vehicle policy entity that exchanges V2X messages and adapts
// the vehicle's task execution; the classes differ exactly in the
// information content and direction of those messages.
//
// MRM/MRC characteristics reproduced per class (Table I):
//
//   - status-sharing: an AV in MRC shares its stopped position (the
//     "red warning triangle"); others adapt their own plans. Only
//     individual MRCs.
//   - intent-sharing: additionally shares the planned MRM (target
//     stop) so others can adapt *before* the manoeuvre. Only
//     individual MRCs.
//   - agreement-seeking: a failing AV requests a gap and waits for
//     consent before the (concerted) MRM; global MRCs become possible
//     through negotiated evacuations.
//   - prescriptive: a directing entity can order one, several, or all
//     vehicles into MRC (local and global MRCs); vehicles that cannot
//     comply go to their own MRC instead.
package coop

import (
	"slices"
	"strconv"
	"time"

	"coopmrm/internal/geom"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/sim"
	"coopmrm/internal/world"
)

// Base carries the plumbing every cooperative class shares: the haul
// agent it steers, the network endpoint, periodic status beacons, and
// the avoid-on-peer-MRC reaction. Its peer table, the last mode each
// peer reported, is the only one a member keeps: every class reads
// its peers' state from here.
type Base struct {
	Haul   *agent.HaulAgent
	Net    *comm.Network
	Graph  *world.RouteGraph
	Period time.Duration
	// World, when set, limits route avoidance to peers stopped inside
	// tunnel zones (see BlockageAt). A nil World blocks
	// unconditionally.
	World *world.World

	nextSend    time.Duration
	avoidedFor  map[string]Blockage // peer -> avoided elements
	peerMode    map[string]string
	stopChanges int
}

// Blockage is what a stopped vehicle blocks in the route graph: an
// edge and a node, each empty when not blocked.
type Blockage struct {
	Node string
	Edge [2]string
}

// BlockageAt is the one rule for what a vehicle stopped at pos
// blocks. Outside a tunnel zone it blocks nothing: the operational
// pass-around layer handles it, and graph-level blocking would be too
// coarse (a nil World skips this test). Otherwise it blocks the
// nearest edge within 8 m and the nearest node within 12 m.
func BlockageAt(g *world.RouteGraph, w *world.World, pos geom.Vec2) Blockage {
	var blk Blockage
	if w != nil && !w.HasZoneKindAt(world.ZoneTunnel, pos) {
		return blk
	}
	if ea, eb, d, ok := g.NearestEdge(pos); ok && d < 8 {
		blk.Edge = [2]string{ea, eb}
	}
	if n, ok := g.NearestNode(pos); ok {
		if np, ok := g.NodePos(n); ok && np.Dist(pos) < 12 {
			blk.Node = n
		}
	}
	return blk
}

// NewBase initialises the shared plumbing (default beacon period 1s).
func NewBase(haul *agent.HaulAgent, net *comm.Network, graph *world.RouteGraph, period time.Duration) *Base {
	if period <= 0 {
		period = time.Second
	}
	return &Base{
		Haul:       haul,
		Net:        net,
		Graph:      graph,
		Period:     period,
		avoidedFor: make(map[string]Blockage),
		peerMode:   make(map[string]string),
	}
}

// C returns the steered constituent.
func (b *Base) C() *core.Constituent { return b.Haul.Constituent() }

// PeerMode returns the last known mode of a peer ("" if unknown).
func (b *Base) PeerMode(id string) string { return b.peerMode[id] }

// StopChanges counts the changes of the stopped-peer set: the peers
// whose last beacon reported MRM or MRC. A caller whose decision
// depends only on that set recomputes it when the count moves.
func (b *Base) StopChanges() int { return b.stopChanges }

// StoppedPeers appends the stopped peers' IDs to dst, sorted.
func (b *Base) StoppedPeers(dst []string) []string {
	n := len(dst)
	for id, mode := range b.peerMode {
		if stopped(mode) {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

func stopped(mode string) bool { return mode == "mrc" || mode == "mrm" }

// HandleStatus processes one status beacon: track the peer's mode,
// and while the peer is stopped (MRM/MRC) avoid what it blocks (see
// BlockageAt), or the node it names when the beacon carries no
// position. Everything is undone when a later beacon shows the peer
// operational again.
func (b *Base) HandleStatus(m comm.Message) {
	if m.Topic != comm.TopicStatus {
		return
	}
	mode := m.Get(comm.KeyMode)
	if stopped(mode) != stopped(b.peerMode[m.From]) {
		b.stopChanges++
	}
	b.peerMode[m.From] = mode
	if !stopped(mode) {
		b.unblockFor(m.From)
		return
	}
	var blk Blockage
	if pos, ok := StatusPos(m); ok && b.Graph != nil {
		blk = BlockageAt(b.Graph, b.World, pos)
	} else {
		blk.Node = m.Get(comm.KeyNode)
	}
	// Unchanged blockage: nothing to do (avoids a replan storm when
	// beacons repeat the same stopped position).
	if b.avoidedFor[m.From] == blk {
		return
	}
	b.unblockFor(m.From)
	if blk.Edge[0] != "" {
		b.Haul.AvoidEdge(blk.Edge[0], blk.Edge[1])
	}
	if blk.Node != "" {
		b.Haul.Avoid(blk.Node)
	}
	if blk != (Blockage{}) {
		b.avoidedFor[m.From] = blk
	}
}

func (b *Base) unblockFor(peer string) {
	blk, ok := b.avoidedFor[peer]
	if !ok {
		return
	}
	if blk.Node != "" {
		b.Haul.Unavoid(blk.Node)
	}
	if blk.Edge[0] != "" {
		b.Haul.UnavoidEdge(blk.Edge[0], blk.Edge[1])
	}
	delete(b.avoidedFor, peer)
}

// BeaconIfDue broadcasts the periodic status message.
func (b *Base) BeaconIfDue(env *sim.Env) {
	now := env.Clock.Now()
	if now < b.nextSend {
		return
	}
	b.nextSend = now + b.Period
	b.Net.Send(StatusBeacon(b.C(), b.Graph))
}

// StatusBeacon builds the status broadcast of every V2X class: the
// sender's position, ADS mode and nearest route node ("" without a
// graph).
func StatusBeacon(c *core.Constituent, g *world.RouteGraph) comm.Message {
	pos := c.Body().Position()
	node := ""
	if g != nil {
		node, _ = g.NearestNode(pos)
	}
	return comm.NewMessage(c.ID(), comm.Broadcast, comm.TypeStatus, comm.TopicStatus,
		map[string]string{
			comm.KeyX:    strconv.FormatFloat(pos.X, 'f', 2, 64),
			comm.KeyY:    strconv.FormatFloat(pos.Y, 'f', 2, 64),
			comm.KeyMode: c.Mode().String(),
			comm.KeyNode: node,
		})
}

// StatusPos extracts a message's position payload; ok is false when
// it is absent or malformed.
func StatusPos(m comm.Message) (pos geom.Vec2, ok bool) {
	x, err1 := strconv.ParseFloat(m.Get(comm.KeyX), 64)
	y, err2 := strconv.ParseFloat(m.Get(comm.KeyY), 64)
	return geom.V(x, y), err1 == nil && err2 == nil
}
