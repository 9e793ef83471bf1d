package comm

import (
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

func newNet(cfg NetConfig) *Network {
	return NewNetwork(cfg, sim.NewRNG(1))
}

func TestTypeString(t *testing.T) {
	if TypeStatus.String() != "status" || TypeCommand.String() != "command" {
		t.Error("type names wrong")
	}
	if Type(42).String() == "" {
		t.Error("unknown type should render")
	}
}

func TestMessagePayload(t *testing.T) {
	m := NewMessage("a", "b", TypeStatus, "topic", &Body{Fields: map[string]string{"k": "v"}})
	if m.Get("k") != "v" || m.Get("missing") != "" {
		t.Error("Get wrong")
	}
	if _, ok := m.Pos(); ok || m.Mode() != "" || m.Node() != "" {
		t.Error("a text body names no position, mode or node")
	}
	empty := NewMessage("a", "b", TypeStatus, "topic", nil)
	if _, ok := empty.Pos(); ok || empty.Get("k") != "" || empty.Mode() != "" || empty.Node() != "" {
		t.Error("a message without a body must read as empty")
	}
	beacon := NewMessage("a", Broadcast, TypeStatus, TopicStatus,
		&Body{Pos: geom.V(1.25, -3), HasPos: true, Mode: "mrc", Node: "n1"})
	if pos, ok := beacon.Pos(); !ok || pos != geom.V(1.25, -3) || beacon.Mode() != "mrc" || beacon.Node() != "n1" {
		t.Errorf("beacon reads pos %v %v, mode %q, node %q", pos, ok, beacon.Mode(), beacon.Node())
	}
}

func TestRegisterValidation(t *testing.T) {
	n := newNet(NetConfig{})
	if err := n.Register(""); err == nil {
		t.Error("empty ID should error")
	}
	if err := n.Register(Broadcast); err == nil {
		t.Error("broadcast ID should error")
	}
	if err := n.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a"); err == nil {
		t.Error("duplicate should error")
	}
}

func TestUnicastDelivery(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "hello", nil))
	n.Deliver(0)
	got := n.Receive("b")
	if len(got) != 1 || got[0].Topic != "hello" || got[0].Seq != 1 {
		t.Errorf("Receive = %+v", got)
	}
	if len(n.Receive("b")) != 0 {
		t.Error("inbox should drain")
	}
	if len(n.Receive("a")) != 0 {
		t.Error("sender should not receive unicast")
	}
}

func TestBroadcast(t *testing.T) {
	n := newNet(NetConfig{})
	for _, id := range []string{"a", "b", "c"} {
		n.MustRegister(id)
	}
	n.Send(NewMessage("a", Broadcast, TypeStatus, "all", nil))
	n.Deliver(0)
	if len(n.Receive("b")) != 1 || len(n.Receive("c")) != 1 {
		t.Error("broadcast should reach others")
	}
	if len(n.Receive("a")) != 0 {
		t.Error("broadcast should not loop back")
	}
}

func TestLatency(t *testing.T) {
	n := newNet(NetConfig{Latency: 200 * time.Millisecond})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	n.Deliver(100 * time.Millisecond)
	if len(n.Receive("b")) != 0 {
		t.Error("message arrived before latency elapsed")
	}
	if n.Pending() != 1 {
		t.Errorf("Pending = %d", n.Pending())
	}
	n.Deliver(200 * time.Millisecond)
	if len(n.Receive("b")) != 1 {
		t.Error("message should arrive at latency")
	}
}

func TestLoss(t *testing.T) {
	n := newNet(NetConfig{LossProb: 1})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	n.Deliver(0)
	if len(n.Receive("b")) != 0 {
		t.Error("LossProb=1 should drop everything")
	}
	sent, dropped := n.Stats()
	if sent != 1 || dropped != 1 {
		t.Errorf("stats = %d sent %d dropped", sent, dropped)
	}
}

func TestNodeDown(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	n.MustRegister("b")
	n.SetNodeDown("b", true)
	if !n.NodeDown("b") {
		t.Error("NodeDown should be true")
	}
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	n.Deliver(0)
	if len(n.Receive("b")) != 0 {
		t.Error("downed node received")
	}
	// Downed sender cannot send either.
	n.Send(NewMessage("b", "a", TypeStatus, "y", nil))
	n.Deliver(0)
	if len(n.Receive("a")) != 0 {
		t.Error("message escaped a downed sender")
	}
	n.SetNodeDown("b", false)
	n.Send(NewMessage("a", "b", TypeStatus, "z", nil))
	n.Deliver(0)
	if len(n.Receive("b")) != 1 {
		t.Error("restored node should receive")
	}
}

func TestLinkDown(t *testing.T) {
	n := newNet(NetConfig{})
	for _, id := range []string{"a", "b", "c"} {
		n.MustRegister(id)
	}
	n.SetLinkDown("a", "b", true)
	n.Send(NewMessage("a", Broadcast, TypeStatus, "x", nil))
	n.Deliver(0)
	if len(n.Receive("b")) != 0 {
		t.Error("partitioned link delivered")
	}
	if len(n.Receive("c")) != 1 {
		t.Error("unaffected link should deliver")
	}
	n.SetLinkDown("a", "b", false)
	n.Send(NewMessage("b", "a", TypeStatus, "y", nil))
	n.Deliver(0)
	if len(n.Receive("a")) != 1 {
		t.Error("restored link should deliver")
	}
}

func TestUnknownRecipient(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	n.Send(NewMessage("a", "ghost", TypeStatus, "x", nil))
	n.Deliver(0)
	if n.Pending() != 0 {
		t.Error("message to unknown endpoint should vanish")
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	run := func() []int64 {
		n := NewNetwork(NetConfig{Latency: 50 * time.Millisecond, Jitter: 30 * time.Millisecond}, sim.NewRNG(7))
		n.MustRegister("a")
		n.MustRegister("b")
		for i := 0; i < 20; i++ {
			n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
		}
		n.Deliver(time.Second)
		var seqs []int64
		for _, m := range n.Receive("b") {
			seqs = append(seqs, m.Seq)
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("delivery order differs between identical runs")
		}
	}
}

func TestNetworkHook(t *testing.T) {
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	n := NewNetwork(NetConfig{Latency: 150 * time.Millisecond}, sim.NewRNG(1))
	n.MustRegister("a")
	n.MustRegister("b")
	e.AddPreHook(n.Hook())
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	e.RunTick() // t=0: deliver nothing
	if len(n.Receive("b")) != 0 {
		t.Error("too early")
	}
	e.RunTick() // t=100ms pre-hook: not yet (150ms)
	e.RunTick() // t=200ms pre-hook: due
	if len(n.Receive("b")) != 1 {
		t.Error("hook did not deliver")
	}
}

func TestEndpointsOrder(t *testing.T) {
	n := newNet(NetConfig{})
	for _, id := range []string{"c", "a", "b"} {
		n.MustRegister(id)
	}
	got := n.Endpoints()
	if len(got) != 3 || got[0] != "c" || got[2] != "b" {
		t.Errorf("endpoints = %v (registration order expected)", got)
	}
}
