package comm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"coopmrm/internal/sim"
)

// Regression: broadcasting on a network with zero registered endpoints
// used to build a slice with negative capacity and panic.
func TestBroadcastEmptyNetworkNoPanic(t *testing.T) {
	n := newNet(NetConfig{})
	n.Send(NewMessage("ghost", Broadcast, TypeStatus, "x", nil))
	n.Deliver(0)
	sent, dropped := n.Stats()
	if sent != 0 || dropped != 0 {
		t.Errorf("stats = %d sent %d dropped, want 0/0 (no delivery attempts)", sent, dropped)
	}
}

// Regression: a broadcast used to count one sent but one dropped per
// failed recipient, so dropped could exceed sent; and a unicast to an
// unregistered endpoint vanished without a drop. Accounting is now
// per attempted delivery.
func TestStatsPerRecipientAccounting(t *testing.T) {
	n := newNet(NetConfig{})
	for _, id := range []string{"a", "b", "c", "d"} {
		n.MustRegister(id)
	}
	n.SetNodeDown("c", true)
	n.SetNodeDown("d", true)
	n.Send(NewMessage("a", Broadcast, TypeStatus, "x", nil))
	sent, dropped := n.Stats()
	if sent != 3 || dropped != 2 {
		t.Errorf("broadcast stats = %d sent %d dropped, want 3/2", sent, dropped)
	}

	n.Send(NewMessage("a", "ghost", TypeStatus, "x", nil))
	sent, dropped = n.Stats()
	if sent != 4 || dropped != 3 {
		t.Errorf("unregistered unicast must count as a drop: %d sent %d dropped, want 4/3", sent, dropped)
	}

	// Downed sender: every attempted recipient is a drop.
	n.Send(NewMessage("c", Broadcast, TypeStatus, "x", nil))
	sent, dropped = n.Stats()
	if sent != 7 || dropped != 6 {
		t.Errorf("downed-sender broadcast: %d sent %d dropped, want 7/6", sent, dropped)
	}
}

// The invariant dropped <= sent must hold under any mix of loss,
// partitions, downed nodes, broadcasts, and bogus addressing.
func TestStatsInvariantUnderRandomCampaign(t *testing.T) {
	rng := sim.NewRNG(99)
	n := NewNetwork(NetConfig{
		Latency: 10 * time.Millisecond, ReorderProb: 1, ReorderWindow: 20 * time.Millisecond, LossProb: 0.3,
		Partitions: []Partition{{A: "a", B: "b", Until: time.Hour}},
	}, rng)
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		n.MustRegister(id)
	}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(5) {
		case 0:
			n.SetNodeDown(ids[rng.Intn(len(ids))], rng.Bool(0.5))
		case 1:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], Broadcast, TypeStatus, "x", nil))
		case 2:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], "ghost", TypeStatus, "x", nil))
		default:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], TypeStatus, "x", nil))
		}
		sent, dropped := n.Stats()
		if dropped > sent || dropped < 0 {
			t.Fatalf("step %d: invariant violated: %d dropped > %d sent", i, dropped, sent)
		}
	}
	n.Deliver(time.Hour)
	sent, dropped := n.Stats()
	delivered := 0
	for _, id := range ids {
		delivered += len(n.Receive(id))
	}
	if int64(delivered)+dropped != sent {
		t.Errorf("conservation: delivered %d + dropped %d != sent %d", delivered, dropped, sent)
	}
}

// Regression: Send used to stamp SentAt (and schedule delivery) from
// the time of the *last Deliver*, so a message sent after the clock
// advanced — e.g. between engine runs, or from a hook running before
// the network's — carried a stale timestamp and could deliver early.
func TestSendStampsCallerVisibleClock(t *testing.T) {
	var now time.Duration
	n := newNet(NetConfig{Latency: 100 * time.Millisecond})
	n.AttachClock(func() time.Duration { return now })
	n.MustRegister("a")
	n.MustRegister("b")

	n.Deliver(0)
	now = 5 * time.Second // the clock moved on; no Deliver happened yet
	n.Send(NewMessage("a", "b", TypeStatus, "x", nil))

	// Delivery must be scheduled from the send-time clock, not the
	// stale Deliver time: nothing is due before 5s + latency.
	n.Deliver(5 * time.Second)
	if got := n.Receive("b"); len(got) != 0 {
		t.Fatalf("message delivered %v early (SentAt %v)", got, got[0].SentAt)
	}
	n.Deliver(5*time.Second + 100*time.Millisecond)
	got := n.Receive("b")
	if len(got) != 1 {
		t.Fatalf("message not delivered: %d", len(got))
	}
	if got[0].SentAt != 5*time.Second {
		t.Errorf("SentAt = %v, want 5s (the caller-visible clock)", got[0].SentAt)
	}
}

// SentAt must be monotone in Seq: the network clock never runs
// backwards, so later sends carry later-or-equal timestamps — even
// when sends interleave with Deliver calls and clock advances.
func TestSentAtMonotoneInSeq(t *testing.T) {
	var now time.Duration
	rng := sim.NewRNG(7)
	n := NewNetwork(NetConfig{Latency: 20 * time.Millisecond, ReorderProb: 1, ReorderWindow: 80 * time.Millisecond}, rng)
	n.AttachClock(func() time.Duration { return now })
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		n.MustRegister(id)
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(4) {
		case 0:
			n.Deliver(now)
		case 1:
			now += time.Duration(rng.Intn(150)) * time.Millisecond
		default:
			n.Send(NewMessage(ids[rng.Intn(len(ids))], Broadcast, TypeStatus, "x", nil))
		}
	}
	n.Deliver(now + time.Hour)
	var all []Message
	for _, id := range ids {
		all = append(all, n.Receive(id)...)
	}
	if len(all) == 0 {
		t.Fatal("property test delivered nothing")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	for i := 1; i < len(all); i++ {
		if all[i].SentAt < all[i-1].SentAt {
			t.Fatalf("SentAt not monotone: seq %d at %v after seq %d at %v",
				all[i].Seq, all[i].SentAt, all[i-1].Seq, all[i-1].SentAt)
		}
	}
}

// Ordering property under random delays: delivering tick by tick must yield
// exactly the same per-recipient message streams as one big Deliver at
// the horizon — each batch is the due prefix of the same global
// (deliverAt, Seq, recipient) order.
func TestDeliverOrderIncrementalMatchesOneShot(t *testing.T) {
	build := func() *Network {
		n := NewNetwork(NetConfig{Latency: 40 * time.Millisecond, ReorderProb: 1, ReorderWindow: 300 * time.Millisecond},
			sim.NewRNG(1234))
		for _, id := range []string{"a", "b", "c"} {
			n.MustRegister(id)
		}
		for i := 0; i < 200; i++ {
			from := []string{"a", "b", "c"}[i%3]
			to := Broadcast
			if i%4 == 0 {
				to = []string{"a", "b", "c"}[(i+1)%3]
			}
			n.Send(NewMessage(from, to, TypeStatus, fmt.Sprintf("m%d", i), nil))
		}
		return n
	}

	const horizon = time.Second
	oneShot := build()
	oneShot.Deliver(horizon)

	incremental := build()
	streams := map[string][]int64{}
	for now := time.Duration(0); now <= horizon; now += 10 * time.Millisecond {
		incremental.Deliver(now)
		for _, id := range []string{"a", "b", "c"} {
			for _, m := range incremental.Receive(id) {
				streams[id] = append(streams[id], m.Seq)
			}
		}
	}

	for _, id := range []string{"a", "b", "c"} {
		want := oneShot.Receive(id)
		got := streams[id]
		if len(got) != len(want) {
			t.Fatalf("%s: %d messages incremental vs %d one-shot", id, len(got), len(want))
		}
		if len(want) == 0 {
			t.Fatalf("%s: property test delivered nothing", id)
		}
		for i := range want {
			if got[i] != want[i].Seq {
				t.Fatalf("%s: stream diverges at %d: seq %d vs %d", id, i, got[i], want[i].Seq)
			}
		}
	}
	if incremental.Pending() != 0 || oneShot.Pending() != 0 {
		t.Error("messages left in transit past the horizon")
	}
}
