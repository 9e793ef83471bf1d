package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// randomEventStream appends n events with kinds and subjects drawn
// from small pools (so collisions are common) plus occasional
// never-matching outliers.
func randomEventStream(rng *RNG, n int) *EventLog {
	kinds := []EventKind{
		EventInfo, EventMRMStarted, EventMRCReached, EventNearMiss,
		EventTaskDone, EventKind("custom.kind"),
	}
	subjects := []string{"truck1", "digger1", "tms", "crane", ""}
	l := NewEventLog()
	for i := 0; i < n; i++ {
		l.Append(Event{
			Time:    time.Duration(i) * 100 * time.Millisecond,
			Tick:    int64(i),
			Kind:    kinds[rng.Intn(len(kinds))],
			Subject: subjects[rng.Intn(len(subjects))],
			Detail:  fmt.Sprintf("d%d", rng.Intn(3)),
		})
	}
	return l
}

// ReadJSON must give back a log whose queries answer as the
// original's did.
func TestEventLogReadJSONRebuildsIndex(t *testing.T) {
	l := randomEventStream(NewRNG(3), 100)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count(EventInfo) != l.Count(EventInfo) {
		t.Errorf("round-trip Count = %d, want %d", back.Count(EventInfo), l.Count(EventInfo))
	}
	if !reflect.DeepEqual(back.ByKind(EventNearMiss), l.ByKind(EventNearMiss)) {
		t.Error("round-trip ByKind diverges")
	}
	if !reflect.DeepEqual(back.KindHistogram(), l.KindHistogram()) {
		t.Error("round-trip KindHistogram diverges")
	}
}

// The point queries allocate nothing. ByKind allocates its result
// slice, so it is not asserted to zero here.
func TestEventLogPointQueriesAllocFree(t *testing.T) {
	l := randomEventStream(NewRNG(11), 5000)
	allocs := testing.AllocsPerRun(100, func() {
		_ = l.Count(EventInfo)
		_, _ = l.First(EventMRCReached)
		_, _ = l.Last(EventMRCReached)
	})
	if allocs != 0 {
		t.Errorf("point queries allocate %v allocs/op, want 0", allocs)
	}
}

// Reset must leave a log empty but with its backing array kept.
func TestEventLogResetKeepCapacity(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Kind: EventInfo, Subject: "x"})
	l.Append(Event{Kind: EventMRMStarted, Subject: "y"})
	capBefore := cap(l.events)
	l.Reset()
	if l.Len() != 0 || len(l.ByKind(EventInfo)) != 0 || l.Count(EventMRMStarted) != 0 {
		t.Errorf("reset log not empty: len=%d", l.Len())
	}
	if cap(l.events) != capBefore {
		t.Errorf("Reset dropped the backing array: cap %d, want %d", cap(l.events), capBefore)
	}
	l.Append(Event{Kind: EventInfo, Subject: "x"})
	if l.Len() != 1 || l.Count(EventInfo) != 1 {
		t.Error("log unusable after reset")
	}
}

// BenchmarkEventLogAppend measures the emit path.
func BenchmarkEventLogAppend(b *testing.B) {
	e := Event{Kind: EventInfo, Subject: "truck1", Detail: "beacon"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewEventLog()
		for j := 0; j < 1000; j++ {
			l.Append(e)
		}
	}
}

// readJSON parses a JSON-lines stream written by WriteEvents back into
// an EventLog, the oracle of the writer's round trip.
func readJSON(r io.Reader) (*EventLog, error) {
	log := NewEventLog()
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return log, nil
		} else if err != nil {
			return nil, fmt.Errorf("decode event %d: %w", log.Len(), err)
		}
		log.Append(e)
	}
}
