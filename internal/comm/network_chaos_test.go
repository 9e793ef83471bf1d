package comm

import (
	"testing"
	"time"

	"coopmrm/internal/sim"
)

// Regression: a message already in transit used to be delivered even
// when the recipient's radio died after the send. Delivery now
// re-checks node state at arrival time.
func TestDeliverDropsNodeDownedMidFlight(t *testing.T) {
	n := newNet(NetConfig{Latency: 100 * time.Millisecond})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	n.SetNodeDown("b", true) // radio dies while the datagram is in flight
	n.Deliver(time.Second)
	if got := n.Receive("b"); len(got) != 0 {
		t.Fatalf("dead radio received %d messages", len(got))
	}
	sent, dropped := n.Stats()
	if sent != 1 || dropped != 1 {
		t.Errorf("stats = %d/%d, want 1 sent 1 dropped", sent, dropped)
	}
	if bd := n.StatsBreakdown(); bd.NodeDown != 1 {
		t.Errorf("breakdown = %+v, want NodeDown 1", bd)
	}

	// Sender state at arrival does NOT matter: the datagram already
	// left its radio.
	n.Send(NewMessage("a", "c", TypeStatus, "x", nil)) // to keep ids distinct
	n2 := newNet(NetConfig{Latency: 100 * time.Millisecond})
	n2.MustRegister("a")
	n2.MustRegister("b")
	n2.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	n2.SetNodeDown("a", true) // sender dies mid-flight
	n2.Deliver(time.Second)
	if got := n2.Receive("b"); len(got) != 1 {
		t.Fatalf("sender death after send must not drop the datagram: got %d", len(got))
	}
}

// Regression: a link partitioned between Send and Deliver used to let
// in-flight messages through.
func TestDeliverDropsLinkPartitionedMidFlight(t *testing.T) {
	n := newNet(NetConfig{
		Latency:    100 * time.Millisecond,
		Partitions: []Partition{{A: "a", B: "b", From: 50 * time.Millisecond, Until: time.Hour}},
	})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil)) // sent at 0, before the cut
	n.Deliver(time.Second)
	if got := n.Receive("b"); len(got) != 0 {
		t.Fatalf("partitioned link delivered %d messages", len(got))
	}
	if bd := n.StatsBreakdown(); bd.LinkDown != 1 {
		t.Errorf("breakdown = %+v, want LinkDown 1", bd)
	}
	sent, dropped := n.Stats()
	if dropped > sent {
		t.Errorf("invariant violated: %d dropped > %d sent", dropped, sent)
	}
}

// A partition healed mid-run: drops while down, flows after heal —
// including a message sent during the outage (dropped at send) and one
// sent after (delivered).
func TestPartitionHealMidFlight(t *testing.T) {
	n := newNet(NetConfig{
		Latency:    50 * time.Millisecond,
		Partitions: []Partition{{A: "a", B: "b", Until: time.Second}},
	})
	n.MustRegister("a")
	n.MustRegister("b")

	n.Send(NewMessage("a", "b", TypeStatus, "during", nil))
	n.Deliver(time.Second) // the window ends at 1s
	if len(n.Receive("b")) != 0 {
		t.Fatal("message crossed a downed link")
	}

	n.Send(NewMessage("a", "b", TypeStatus, "after", nil))
	n.Deliver(2 * time.Second)
	got := n.Receive("b")
	if len(got) != 1 || got[0].Topic != "after" {
		t.Fatalf("healed link should deliver: got %+v", got)
	}
	sent, dropped := n.Stats()
	if sent != 2 || dropped != 1 {
		t.Errorf("stats = %d/%d, want 2 sent 1 dropped", sent, dropped)
	}
}

// Contract: a unicast addressed to its own sender is rejected with an
// accounted drop (cause Self) — the radio is not a loopback device.
func TestSelfSendRejected(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	n.Send(NewMessage("a", "a", TypeStatus, "echo", nil))
	n.Deliver(0)
	if got := n.Receive("a"); len(got) != 0 {
		t.Fatalf("self-send delivered %d messages", len(got))
	}
	sent, dropped := n.Stats()
	if sent != 1 || dropped != 1 {
		t.Errorf("stats = %d/%d, want 1 sent 1 dropped (accounted rejection)", sent, dropped)
	}
	if bd := n.StatsBreakdown(); bd.Self != 1 {
		t.Errorf("breakdown = %+v, want Self 1", bd)
	}
	// Broadcast never fans out to the sender, so no Self drop there.
	n.MustRegister("b")
	n.Send(NewMessage("a", Broadcast, TypeStatus, "x", nil))
	if bd := n.StatsBreakdown(); bd.Self != 1 {
		t.Errorf("broadcast must not self-deliver or self-drop: %+v", bd)
	}
}

// Scheduled Partition windows block at send time and at arrival time,
// and expire on the network clock.
func TestScheduledPartitionWindows(t *testing.T) {
	n := NewNetwork(NetConfig{
		Latency:    100 * time.Millisecond,
		Partitions: []Partition{{A: "a", B: "b", From: time.Second, Until: 3 * time.Second}},
	}, sim.NewRNG(1))
	n.MustRegister("a")
	n.MustRegister("b")
	n.MustRegister("c")

	var now time.Duration
	n.AttachClock(func() time.Duration { return now })

	// Sent at 0.95s: in flight when the window opens at 1s, so the
	// arrival at 1.05s is inside the window — dropped at delivery time.
	now = 950 * time.Millisecond
	n.Send(NewMessage("a", "b", TypeStatus, "overtaken", nil))
	n.Deliver(2 * time.Second)
	if len(n.Receive("b")) != 0 {
		t.Fatal("arrival inside the window must drop")
	}

	// Sent inside the window: dropped at send time.
	now = 2 * time.Second
	n.Send(NewMessage("b", "a", TypeStatus, "inside", nil))
	// An uninvolved pair is unaffected.
	n.Send(NewMessage("a", "c", TypeStatus, "bystander", nil))
	n.Deliver(2500 * time.Millisecond)
	if len(n.Receive("a")) != 0 {
		t.Fatal("send inside the window must drop")
	}
	if len(n.Receive("c")) != 1 {
		t.Fatal("partition must not affect uninvolved pairs")
	}

	// After the window: flows again.
	now = 3 * time.Second
	n.Send(NewMessage("a", "b", TypeStatus, "healed", nil))
	n.Deliver(4 * time.Second)
	if got := n.Receive("b"); len(got) != 1 || got[0].Topic != "healed" {
		t.Fatalf("window expiry should heal the link: got %+v", got)
	}
	if bd := n.StatsBreakdown(); bd.LinkDown != 2 {
		t.Errorf("breakdown = %+v, want LinkDown 2", bd)
	}
}

// Wildcard partitions: {A: "x"} (empty B) takes x's radio offline;
// {"*", "*"} is a global blackout.
func TestPartitionWildcards(t *testing.T) {
	n := NewNetwork(NetConfig{
		Partitions: []Partition{
			{A: "a", From: 0, Until: time.Second},                                               // node outage
			{A: PartitionAny, B: PartitionAny, From: 10 * time.Second, Until: 11 * time.Second}, // blackout
		},
	}, sim.NewRNG(1))
	for _, id := range []string{"a", "b", "c"} {
		n.MustRegister(id)
	}
	var now time.Duration
	n.AttachClock(func() time.Duration { return now })

	n.Send(NewMessage("b", "a", TypeStatus, "to-downed", nil))
	n.Send(NewMessage("a", "c", TypeStatus, "from-downed", nil))
	n.Send(NewMessage("b", "c", TypeStatus, "unaffected", nil))
	n.Deliver(0)
	if len(n.Receive("a")) != 0 || len(n.Receive("c")) != 1 {
		t.Fatal("node-outage window must block only a's traffic")
	}

	now = 10 * time.Second
	n.Send(NewMessage("b", "c", TypeStatus, "blackout", nil))
	n.Deliver(10 * time.Second)
	if len(n.Receive("c")) != 0 {
		t.Fatal("global blackout must block everything")
	}
	now = 11 * time.Second
	n.Send(NewMessage("b", "c", TypeStatus, "after", nil))
	n.Deliver(11 * time.Second)
	if len(n.Receive("c")) != 1 {
		t.Fatal("blackout must end at Until")
	}
}

// With ReorderProb = 1 every delivery draws an extra hold-back, so a
// burst sent on one tick is overtaken deterministically: two identical
// networks produce identical streams, and at least one pair arrives
// out of Seq order.
func TestReorderDeterministicAndEffective(t *testing.T) {
	build := func() []int64 {
		n := NewNetwork(NetConfig{
			Latency: 10 * time.Millisecond, ReorderProb: 1,
			ReorderWindow: 300 * time.Millisecond,
		}, sim.NewRNG(42))
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
	one, two := build(), build()
	if len(one) != 20 {
		t.Fatalf("delivered %d of 20", len(one))
	}
	inverted := false
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("reorder not deterministic: stream diverges at %d (%d vs %d)", i, one[i], two[i])
		}
		if i > 0 && one[i] < one[i-1] {
			inverted = true
		}
	}
	if !inverted {
		t.Error("ReorderProb=1 on a 20-message burst should invert at least one pair")
	}
}

// breakdownTotal sums the drop causes; it must equal Stats' dropped.
func breakdownTotal(b Breakdown) int64 {
	return b.Unregistered + b.NodeDown + b.LinkDown + b.Loss + b.Self
}

// The per-cause breakdown must sum exactly to the dropped total under
// a random chaos campaign with mid-flight node flips, reorder,
// scheduled partitions, and interleaved Deliver calls.
func TestBreakdownSumsToDropped(t *testing.T) {
	rng := sim.NewRNG(7)
	n := NewNetwork(NetConfig{
		Latency:  10 * time.Millisecond,
		LossProb: 0.2, ReorderProb: 0.3, ReorderWindow: 40 * time.Millisecond,
		Partitions: []Partition{
			{A: "a", B: "b", From: 100 * time.Millisecond, Until: 900 * time.Millisecond},
			{A: "e", From: 300 * time.Millisecond, Until: 600 * time.Millisecond},
		},
	}, rng)
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		n.MustRegister(id)
	}
	var now time.Duration
	n.AttachClock(func() time.Duration { return now })
	delivered := int64(0)
	for i := 0; i < 3000; i++ {
		switch rng.Intn(7) {
		case 0:
			n.SetNodeDown(ids[rng.Intn(len(ids))], rng.Bool(0.5))
		case 1:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], Broadcast, TypeStatus, "x", nil))
		case 2:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], "ghost", TypeStatus, "x", nil))
		case 3:
			id := ids[rng.Intn(len(ids))]
			n.Send(NewMessage(id, id, TypeStatus, "x", nil)) // self-send
		case 4:
			now += time.Duration(rng.Intn(30)) * time.Millisecond
			n.Deliver(now)
			for _, id := range ids {
				delivered += int64(len(n.Receive(id)))
			}
		default:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], TypeStatus, "x", nil))
		}
		sent, dropped := n.Stats()
		if dropped > sent {
			t.Fatalf("step %d: %d dropped > %d sent", i, dropped, sent)
		}
		if bd := n.StatsBreakdown(); breakdownTotal(bd) != dropped {
			t.Fatalf("step %d: breakdown %+v sums to %d, dropped %d", i, bd, breakdownTotal(bd), dropped)
		}
	}
	// Drain everything: full conservation across causes.
	for _, id := range ids {
		n.SetNodeDown(id, false)
	}
	n.Deliver(now + time.Hour)
	for _, id := range ids {
		delivered += int64(len(n.Receive(id)))
	}
	sent, dropped := n.Stats()
	if delivered+dropped != sent {
		t.Errorf("conservation: %d delivered + %d dropped != %d sent", delivered, dropped, sent)
	}
	bd := n.StatsBreakdown()
	if breakdownTotal(bd) != dropped {
		t.Errorf("breakdown %+v sums to %d, dropped %d", bd, breakdownTotal(bd), dropped)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{{"Unregistered", bd.Unregistered}, {"NodeDown", bd.NodeDown}, {"LinkDown", bd.LinkDown},
		{"Loss", bd.Loss}, {"Self", bd.Self}} {
		if c.v == 0 {
			t.Errorf("campaign never exercised drop cause %s", c.name)
		}
	}
}

// NetConfig.Validate flags bad probabilities, negative delays, and
// malformed partition windows; NewNetwork panics on them.
func TestNetConfigValidate(t *testing.T) {
	bad := []NetConfig{
		{LossProb: -0.1},
		{LossProb: 1.1},
		{ReorderProb: 2},
		{Latency: -time.Second},
		{ReorderWindow: -time.Second},
		{Partitions: []Partition{{A: "", From: 0, Until: time.Second}}},
		{Partitions: []Partition{{A: "a", B: "b", From: time.Second, Until: time.Second}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation: %+v", i, cfg)
		}
	}
	if err := (NetConfig{LossProb: 0.5, ReorderProb: 0.5,
		Partitions: []Partition{{A: "*", B: "*", From: 0, Until: time.Second}}}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewNetwork should panic on invalid config")
		}
	}()
	NewNetwork(NetConfig{LossProb: 2}, sim.NewRNG(1))
}

// The chaos knobs must not perturb the RNG stream when disabled: a
// zero-chaos config consumes exactly the same draws as the pre-chaos
// network, so existing seeds reproduce byte-identical runs.
func TestZeroChaosPreservesRNGStream(t *testing.T) {
	run := func(cfg NetConfig) (msgs []time.Duration, next float64) {
		rng := sim.NewRNG(11)
		n := NewNetwork(cfg, rng)
		n.MustRegister("a")
		n.MustRegister("b")
		for i := 0; i < 50; i++ {
			n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
		}
		n.Deliver(time.Hour)
		for _, m := range n.Receive("b") {
			msgs = append(msgs, m.SentAt)
		}
		return msgs, rng.Range(0, 1) // the next draw exposes stream position
	}
	cfg := NetConfig{Latency: 20 * time.Millisecond, LossProb: 0.3}
	_, before := run(cfg)
	chaosOff := cfg
	chaosOff.ReorderProb = 0
	chaosOff.ReorderWindow = time.Second
	chaosOff.Partitions = []Partition{{A: "c", B: "d", From: 0, Until: time.Hour}}
	_, after := run(chaosOff)
	if before != after {
		t.Errorf("disabled chaos knobs moved the RNG stream: %v vs %v", before, after)
	}
}
