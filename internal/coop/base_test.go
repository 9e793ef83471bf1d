package coop

import (
	"math"
	"strconv"
	"testing"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// baseRig builds a Base over a diamond graph with a tunnel on the
// direct route.
func baseRig(t *testing.T, gateWorld bool) (*Base, *agent.HaulAgent, *world.World) {
	t.Helper()
	w := world.New()
	g := w.Graph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("m", geom.V(100, 0))
	g.AddNode("b", geom.V(200, 0))
	g.AddNode("alt", geom.V(100, 80))
	g.MustConnect("a", "m")
	g.MustConnect("m", "b")
	g.MustConnect("a", "alt")
	g.MustConnect("alt", "b")
	w.MustAddZone(world.Zone{ID: "tunnel", Kind: world.ZoneTunnel,
		Area: geom.NewRect(geom.V(20, -5), geom.V(180, 5))})

	net := comm.NewNetwork(comm.NetConfig{}, sim.NewRNG(1))
	net.MustRegister("self")
	c := core.MustConstituent(core.Config{
		ID: "self", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0)}, World: w,
	})
	h := agent.New(agent.Config{C: c, Graph: g, Loop: []string{"b", "a"}, Speed: 8})
	b := NewBase(h, net, g, time.Second)
	if gateWorld {
		b.World = w
	}
	return b, h, w
}

func statusMsg(from, mode string, pos geom.Vec2) comm.Message {
	return comm.NewMessage(from, comm.Broadcast, comm.TypeStatus, comm.TopicStatus,
		&comm.Body{Pos: comm.WirePos(pos), HasPos: true, Mode: mode, Node: "m"})
}

func TestHandleStatusBlocksEdgeInTunnel(t *testing.T) {
	b, h, _ := baseRig(t, true)
	b.HandleStatus(statusMsg("peer", "mrc", geom.V(60, 0))) // on a-m, in tunnel
	if !h.AvoidedEdge("a", "m") {
		t.Error("edge a-m should be avoided")
	}
	if h.Avoided("m") {
		t.Error("node m is 40m away from the wreck; it must stay usable")
	}
	if b.PeerMode("peer") != "mrc" {
		t.Error("peer mode not tracked")
	}
}

func TestHandleStatusBlocksNodeNearJunction(t *testing.T) {
	b, h, _ := baseRig(t, true)
	b.HandleStatus(statusMsg("peer", "mrc", geom.V(97, 0))) // 3m from node m, in tunnel
	if !h.Avoided("m") {
		t.Error("node m should be avoided for a wreck at the junction")
	}
	if !h.AvoidedEdge("a", "m") && !h.AvoidedEdge("m", "b") {
		t.Error("the wreck's edge should be avoided too")
	}
}

func TestHandleStatusIgnoresPassableBlockage(t *testing.T) {
	b, h, _ := baseRig(t, true)
	// On the alt drift, outside the tunnel: the operational layer can
	// pass around it, so no graph-level blocking.
	b.HandleStatus(statusMsg("peer", "mrc", geom.V(50, 40)))
	if h.Avoided("alt") || h.AvoidedEdge("a", "alt") {
		t.Error("non-tunnel blockage must not block the graph")
	}
}

func TestHandleStatusBlocksUnconditionallyWithoutWorld(t *testing.T) {
	b, h, _ := baseRig(t, false)
	b.HandleStatus(statusMsg("peer", "mrc", geom.V(50, 40))) // on a-alt
	if !h.AvoidedEdge("a", "alt") {
		t.Error("nil World must block unconditionally")
	}
}

func TestHandleStatusUnblocksOnRecovery(t *testing.T) {
	b, h, _ := baseRig(t, true)
	b.HandleStatus(statusMsg("peer", "mrc", geom.V(60, 0)))
	if !h.AvoidedEdge("a", "m") {
		t.Fatal("setup")
	}
	b.HandleStatus(statusMsg("peer", "nominal", geom.V(60, 0)))
	if h.AvoidedEdge("a", "m") || h.Avoided("m") {
		t.Error("recovery beacon must unblock")
	}
}

// Regression: repeated identical beacons must not tear down and
// re-add the avoidance (which forced a replan storm at fast beacon
// rates).
func TestHandleStatusRepeatedBeaconNoReplanStorm(t *testing.T) {
	b, h, _ := baseRig(t, true)
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.MustRegister(b.C())
	e.MustRegister(h)
	e.RunFor(2 * time.Second) // get the agent en route toward b

	b.HandleStatus(statusMsg("peer", "mrc", geom.V(60, 0)))
	e.RunFor(time.Second)
	path1 := b.C().Body().Path()
	for i := 0; i < 20; i++ {
		b.HandleStatus(statusMsg("peer", "mrc", geom.V(60, 0)))
	}
	e.RunFor(500 * time.Millisecond)
	path2 := b.C().Body().Path()
	if path1 != path2 {
		t.Error("identical beacons must not force replans")
	}
}

func TestHandleStatusMovedBlockageUpdates(t *testing.T) {
	b, h, _ := baseRig(t, true)
	b.HandleStatus(statusMsg("peer", "mrc", geom.V(60, 0))) // a-m
	if !h.AvoidedEdge("a", "m") {
		t.Fatal("setup")
	}
	// The peer is towed to the other segment and stops again.
	b.HandleStatus(statusMsg("peer", "mrm", geom.V(150, 0))) // m-b
	if h.AvoidedEdge("a", "m") {
		t.Error("stale edge should be unblocked")
	}
	if !h.AvoidedEdge("b", "m") && !h.AvoidedEdge("m", "b") {
		t.Error("new edge should be blocked")
	}
}

func TestBeaconIfDuePeriod(t *testing.T) {
	b, _, _ := baseRig(t, true)
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	net2 := b.Net
	net2.MustRegister("listener")
	env := e.Env()
	for i := 0; i < 25; i++ { // 2.5 s with a 1 s period -> 3 beacons
		b.BeaconIfDue(env)
		net2.Deliver(env.Clock.Now())
		e.RunTick()
	}
	net2.Deliver(env.Clock.Now())
	if got := len(net2.Receive("listener")); got != 3 {
		t.Errorf("beacons = %d, want 3", got)
	}
}

// TestStatusBeaconWireFormat checks what a beacon carries: the
// sender's position as the two-decimal text format carried it, bit for
// bit, with its ADS mode and nearest route node.
func TestStatusBeaconWireFormat(t *testing.T) {
	b, _, _ := baseRig(t, false)
	for _, p := range []geom.Vec2{geom.V(12.345678, -0.004), geom.V(0.125, 99.995), geom.V(-3.375, 1e-9)} {
		b.C().Body().Teleport(geom.Pose{Pos: p})
		m := StatusBeacon(b.C(), b.Graph)
		got, ok := m.Pos()
		if !ok {
			t.Fatalf("beacon at %v carries no position", p)
		}
		for _, a := range [][2]float64{{p.X, got.X}, {p.Y, got.Y}} {
			want, _ := strconv.ParseFloat(strconv.FormatFloat(a[0], 'f', 2, 64), 64)
			if math.Float64bits(a[1]) != math.Float64bits(want) {
				t.Errorf("beacon at %v carries %v, want %v", p, a[1], want)
			}
		}
		if m.Mode() != "nominal" || m.Node() != "a" {
			t.Errorf("beacon at %v reports mode %q, node %q; want nominal, a", p, m.Mode(), m.Node())
		}
	}
}
