package comm

import (
	"fmt"
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

func BenchmarkBroadcastDeliver(b *testing.B) {
	n := NewNetwork(NetConfig{Latency: 50 * time.Millisecond}, sim.NewRNG(1))
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
	}
	msg := NewMessage("v0", Broadcast, TypeStatus, TopicStatus,
		&Body{Pos: geom.V(1, 2), HasPos: true, Mode: "nominal"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(msg)
		n.Deliver(time.Duration(i+1) * 100 * time.Millisecond)
		for _, id := range ids {
			n.Receive(id)
		}
	}
}

// benchNetworkTick10Node is the broadcast-heavy delivery tick of the
// ISSUE-5 allocation audit: 10 nodes each beaconing one status
// broadcast per tick (90 attempted deliveries), jitter spreading the
// due times across several ticks so the in-transit set stays
// populated. The scan arm is the pre-heap Deliver (deliverScan);
// the ratio between the two is the delivery-tick speedup, and the
// heap arm's allocs/op is locked to zero by
// TestNetworkSteadyStateTickAllocFree for the no-jitter steady state.
func benchNetworkTick10Node(b *testing.B, scan bool) {
	b.Helper()
	n := NewNetwork(NetConfig{
		Latency: 50 * time.Millisecond,
		Jitter:  300 * time.Millisecond,
	}, sim.NewRNG(1))
	deliver := n.Deliver
	if scan {
		deliver = n.deliverScan
	}
	ids := make([]string, 10)
	msgs := make([]Message, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
		n.MustRegister(ids[i])
		msgs[i] = NewMessage(ids[i], Broadcast, TypeStatus, TopicStatus,
			&Body{Pos: geom.V(1, 2), HasPos: true, Mode: "nominal"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(time.Duration(i) * 100 * time.Millisecond)
		for _, id := range ids {
			n.Receive(id)
		}
		for _, m := range msgs {
			n.Send(m)
		}
	}
}

// BenchmarkNetworkTick10NodeScan is the pre-change oracle: every tick
// scans, partitions, and sorts the full in-transit set.
func BenchmarkNetworkTick10NodeScan(b *testing.B) { benchNetworkTick10Node(b, true) }

// BenchmarkNetworkTick10NodeHeap pops only due envelopes off the
// min-heap.
func BenchmarkNetworkTick10NodeHeap(b *testing.B) { benchNetworkTick10Node(b, false) }
