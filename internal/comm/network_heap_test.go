package comm

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"coopmrm/internal/sim"
)

// deliverScan is the pre-heap Deliver, the oracle arm of the
// differential tests and of BenchmarkNetworkTick10NodeScan. It scans
// the whole in-transit set, partitions it into due and later, sorts
// the due envelopes and processes them. The remainder is not kept in
// heap order, so a network driven by deliverScan must never call
// Deliver.
func (n *Network) deliverScan(now time.Duration) {
	n.now = now
	var due []envelope
	later := n.transit[:0]
	for _, e := range n.transit {
		if e.deliverAt <= now {
			due = append(due, e)
		} else {
			later = append(later, e)
		}
	}
	clear(n.transit[len(later):]) // release the Message maps to the GC
	n.transit = later
	sort.Slice(due, func(i, j int) bool { return envLess(due[i], due[j]) })
	for _, e := range due {
		n.deliverOne(e)
	}
}

// driveDifferential runs an identical randomized traffic script
// through two networks — the min-heap Deliver and the scan+sort
// oracle (deliverScan) — and asserts every observable output is
// identical: drained inbox streams, Stats, StatsBreakdown, Pending.
// Both arms consume their own identically-seeded RNG, so any
// divergence is a delivery-order or accounting bug, not noise.
func driveDifferential(t *testing.T, cfg NetConfig, seed int64, ticks int) {
	t.Helper()
	fast := NewNetwork(cfg, sim.NewRNG(seed))
	oracle := NewNetwork(cfg, sim.NewRNG(seed))

	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		fast.MustRegister(id)
		oracle.MustRegister(id)
	}
	// The script RNG is separate from the network RNGs so both arms
	// see the same op sequence.
	script := sim.NewRNG(seed + 1000)
	step := 100 * time.Millisecond
	for tick := 0; tick < ticks; tick++ {
		now := time.Duration(tick) * step
		// Occasional node and link state flaps, applied to both arms.
		if script.Bool(0.10) {
			id := ids[script.Intn(len(ids))]
			down := script.Bool(0.5)
			fast.SetNodeDown(id, down)
			oracle.SetNodeDown(id, down)
		}
		if script.Bool(0.10) {
			a, b := ids[script.Intn(len(ids))], ids[script.Intn(len(ids))]
			down := script.Bool(0.5)
			fast.SetLinkDown(a, b, down)
			oracle.SetLinkDown(a, b, down)
		}
		fast.Deliver(now)
		oracle.deliverScan(now)
		for _, id := range ids {
			got := fast.Receive(id)
			want := oracle.Receive(id)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d: inbox %q diverges\n heap: %+v\noracle: %+v", tick, id, got, want)
			}
		}
		// A burst of sends after delivery: unicasts (including ghost
		// and self targets) and broadcasts.
		for k := script.Intn(4); k > 0; k-- {
			from := ids[script.Intn(len(ids))]
			to := Broadcast
			switch script.Intn(4) {
			case 0:
				to = ids[script.Intn(len(ids))]
			case 1:
				to = "ghost"
			}
			m := NewMessage(from, to, TypeStatus, "diff", &Body{Fields: map[string]string{"n": fmt.Sprint(tick)}})
			if s1, s2 := fast.Send(m), oracle.Send(m); s1 != s2 {
				t.Fatalf("tick %d: Seq diverges: %d vs %d", tick, s1, s2)
			}
		}
		if fast.Pending() != oracle.Pending() {
			t.Fatalf("tick %d: Pending %d vs oracle %d", tick, fast.Pending(), oracle.Pending())
		}
	}
	gs, gd := fast.Stats()
	ws, wd := oracle.Stats()
	if gs != ws || gd != wd {
		t.Fatalf("Stats diverge: %d/%d vs oracle %d/%d", gs, gd, ws, wd)
	}
	if fast.StatsBreakdown() != oracle.StatsBreakdown() {
		t.Fatalf("Breakdown diverges: %+v vs %+v", fast.StatsBreakdown(), oracle.StatsBreakdown())
	}
}

// TestHeapDeliverMatchesScanOracle is the differential property test
// over the chaos configuration space.
func TestHeapDeliverMatchesScanOracle(t *testing.T) {
	configs := map[string]NetConfig{
		"perfect": {},
		"latency": {Latency: 150 * time.Millisecond},
		"jitter":  {Latency: 50 * time.Millisecond, Jitter: 400 * time.Millisecond},
		"lossy":   {Latency: 50 * time.Millisecond, Jitter: 200 * time.Millisecond, LossProb: 0.2},
		"reorder": {Latency: 50 * time.Millisecond, ReorderProb: 0.3, ReorderWindow: time.Second},
		"dup":     {Latency: 50 * time.Millisecond, Jitter: 100 * time.Millisecond, DupProb: 0.25},
		"everything": {
			Latency: 80 * time.Millisecond, Jitter: 300 * time.Millisecond,
			LossProb: 0.1, ReorderProb: 0.2, DupProb: 0.15,
			Partitions: []Partition{
				{A: "a", B: "b", From: 2 * time.Second, Until: 5 * time.Second},
				{A: "c", From: 8 * time.Second, Until: 9 * time.Second},
				{A: PartitionAny, B: PartitionAny, From: 12 * time.Second, Until: 13 * time.Second},
			},
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				driveDifferential(t, cfg, seed, 200)
			}
		})
	}
}

// Jittered traffic across many ticks exercises the heap ordering with
// envelopes due out of insertion order; the engine-facing invariant is
// that messages drain in (deliverAt, Seq, recipient) order. Seq order
// within one inbox is checked for the no-jitter case.
func TestHeapDeliverFIFOWithoutJitter(t *testing.T) {
	n := newNet(NetConfig{Latency: 250 * time.Millisecond})
	n.MustRegister("a")
	n.MustRegister("b")
	for i := 0; i < 50; i++ {
		n.Send(NewMessage("a", "b", TypeStatus, "x", nil))
	}
	n.Deliver(time.Second)
	msgs := n.Receive("b")
	if len(msgs) != 50 {
		t.Fatalf("delivered %d, want 50", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Seq <= msgs[i-1].Seq {
			t.Fatalf("out-of-order delivery: Seq %d after %d", msgs[i].Seq, msgs[i-1].Seq)
		}
	}
}

// Regression: Receive on an unregistered ID used to create a phantom
// inbox entry, making the ghost appear registered to later Sends.
func TestReceiveUnregisteredCreatesNoPhantomEndpoint(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	if got := n.Receive("ghost"); got != nil {
		t.Fatalf("Receive(ghost) = %v, want nil", got)
	}
	n.Send(NewMessage("a", "ghost", TypeStatus, "x", nil))
	if b := n.StatsBreakdown(); b.Unregistered != 1 {
		t.Errorf("unicast to ghost after Receive(ghost): Unregistered = %d, want 1", b.Unregistered)
	}
}

// The double-buffer contract: the slice returned by Receive stays
// intact across the next Deliver (which appends into the other
// buffer), so an entity can finish ranging over its tick's messages
// while the following tick's traffic lands.
func TestReceiveSliceSurvivesNextDeliver(t *testing.T) {
	n := newNet(NetConfig{})
	n.MustRegister("a")
	n.MustRegister("b")
	n.Send(NewMessage("a", "b", TypeStatus, "x", &Body{Fields: map[string]string{"k": "first"}}))
	n.Deliver(0)
	first := n.Receive("b")
	if len(first) != 1 || first[0].Get("k") != "first" {
		t.Fatalf("first drain = %+v", first)
	}
	n.Send(NewMessage("a", "b", TypeStatus, "x", &Body{Fields: map[string]string{"k": "second"}}))
	n.Deliver(time.Millisecond)
	if first[0].Get("k") != "first" {
		t.Fatalf("slice from previous Receive was clobbered by next Deliver: %+v", first)
	}
	second := n.Receive("b")
	if len(second) != 1 || second[0].Get("k") != "second" {
		t.Fatalf("second drain = %+v", second)
	}
}

// The allocation-lean contract of the tick loop: once scratch buffers
// have grown to the working set, a steady-state broadcast
// send/deliver/receive cycle allocates nothing.
func TestNetworkSteadyStateTickAllocFree(t *testing.T) {
	n := newNet(NetConfig{Latency: 50 * time.Millisecond})
	ids := make([]string, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
	}
	msg := NewMessage("v0", Broadcast, TypeStatus, TopicStatus, &Body{Mode: "nominal"})
	tick := 0
	cycle := func() {
		tick++
		n.Deliver(time.Duration(tick) * 100 * time.Millisecond)
		for _, id := range ids {
			n.Receive(id)
		}
		n.Send(msg)
	}
	for i := 0; i < 100; i++ { // grow all scratch buffers
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state network tick allocates %v allocs/op, want 0", allocs)
	}
}
