package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// EventKind classifies log entries so analyses can filter cheaply.
type EventKind string

// Event kinds emitted by the engine and by domain layers. The set is
// open: layers may define their own kinds, but the ones below have
// fixed meaning across the repository.
const (
	EventInfo          EventKind = "info"
	EventFaultInjected EventKind = "fault.injected"
	EventFaultCleared  EventKind = "fault.cleared"
	EventODDExit       EventKind = "odd.exit"
	EventODDNearExit   EventKind = "odd.near_exit"
	EventDegraded      EventKind = "degradation.entered"
	EventDegradCleared EventKind = "degradation.cleared"
	EventMRMStarted    EventKind = "mrm.started"
	EventMRMSwitched   EventKind = "mrm.switched"
	EventMRMReplanned  EventKind = "mrm.replanned"
	EventMRMConcerted  EventKind = "mrm.concerted"
	EventMRCReached    EventKind = "mrc.reached"
	EventMRCLocal      EventKind = "mrc.local"
	EventMRCGlobal     EventKind = "mrc.global"
	EventRecovered     EventKind = "mrc.recovered"
	EventMsgSent       EventKind = "comm.sent"
	EventMsgDropped    EventKind = "comm.dropped"
	EventTaskDone      EventKind = "task.done"
	EventTaskAssigned  EventKind = "task.assigned"
	EventCollision     EventKind = "safety.collision"
	EventNearMiss      EventKind = "safety.near_miss"
	EventIntervention  EventKind = "user.intervention"
)

// Event is one structured log entry.
type Event struct {
	Time    time.Duration     `json:"t"`
	Tick    int64             `json:"tick"`
	Kind    EventKind         `json:"kind"`
	Subject string            `json:"subject"` // usually a constituent ID
	Detail  string            `json:"detail,omitempty"`
	Fields  map[string]string `json:"fields,omitempty"`
}

// EventLog is an append-only in-memory event record.
//
// Append maintains per-kind and per-subject index slices (positions
// into the event array), so the query methods — Count, ByKind,
// BySubject, First, Last, KindHistogram — run in O(1) or O(matches)
// instead of scanning the whole log. Several of those queries sit
// inside per-tick stop conditions of long experiment runs, where the
// log grows to tens of thousands of entries; the linear scans they
// replaced were the dominant tick cost after the proximity broad-phase
// landed. The scan implementations live in the tests (unexported
// *Scan methods) as the oracle arm of the differential tests.
type EventLog struct {
	events    []Event
	byKind    map[EventKind][]int
	bySubject map[string][]int
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append adds an event and indexes it by kind and subject.
func (l *EventLog) Append(e Event) {
	i := len(l.events)
	l.events = append(l.events, e)
	if l.byKind == nil {
		l.byKind = make(map[EventKind][]int)
		l.bySubject = make(map[string][]int)
	}
	l.byKind[e.Kind] = append(l.byKind[e.Kind], i)
	l.bySubject[e.Subject] = append(l.bySubject[e.Subject], i)
}

// resetKeepCapacity empties the log while retaining every backing
// allocation (event array and index slices), so a warm rig's log
// amortises to zero garbage across runs. Events are zeroed first to
// release their Fields maps.
func (l *EventLog) resetKeepCapacity() {
	clear(l.events)
	l.events = l.events[:0]
	for k, idx := range l.byKind {
		l.byKind[k] = idx[:0]
	}
	for s, idx := range l.bySubject {
		l.bySubject[s] = idx[:0]
	}
}

// Reset empties the log for a new run while keeping its backing
// allocations — the warm-rig counterpart of NewEventLog. A reset log
// is observationally identical to a fresh one (the differential rig
// tests prove it at the byte level).
func (l *EventLog) Reset() { l.resetKeepCapacity() }

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Events returns a copy of all events.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// gather copies the indexed events into a fresh slice, preserving
// append order (index slices are built in append order, so no sort is
// needed). Returns nil for an empty index, matching the scan oracles.
func (l *EventLog) gather(idx []int) []Event {
	if len(idx) == 0 {
		return nil
	}
	out := make([]Event, len(idx))
	for i, pos := range idx {
		out[i] = l.events[pos]
	}
	return out
}

// ByKind returns all events of the given kind, in order.
func (l *EventLog) ByKind(kind EventKind) []Event {
	return l.gather(l.byKind[kind])
}

// BySubject returns all events with the given subject, in order.
func (l *EventLog) BySubject(subject string) []Event {
	return l.gather(l.bySubject[subject])
}

// Count returns the number of events of the given kind.
func (l *EventLog) Count(kind EventKind) int {
	return len(l.byKind[kind])
}

// CountSubject returns the number of events with the given subject.
func (l *EventLog) CountSubject(subject string) int {
	return len(l.bySubject[subject])
}

// First returns the first event of the given kind and whether one
// exists.
func (l *EventLog) First(kind EventKind) (Event, bool) {
	idx := l.byKind[kind]
	if len(idx) == 0 {
		return Event{}, false
	}
	return l.events[idx[0]], true
}

// Last returns the last event of the given kind and whether one
// exists.
func (l *EventLog) Last(kind EventKind) (Event, bool) {
	idx := l.byKind[kind]
	if len(idx) == 0 {
		return Event{}, false
	}
	return l.events[idx[len(idx)-1]], true
}

// KindHistogram returns a map of kind to count, useful in reports.
func (l *EventLog) KindHistogram() map[EventKind]int {
	h := make(map[EventKind]int, len(l.byKind))
	for k, idx := range l.byKind {
		h[k] = len(idx)
	}
	return h
}

// WriteJSON streams the log as JSON lines to w.
func (l *EventLog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("encode event: %w", err)
		}
	}
	return nil
}

// ReadJSON parses a JSON-lines stream written by WriteJSON back into
// an EventLog, so run artifacts can be replayed and asserted on.
func ReadJSON(r io.Reader) (*EventLog, error) {
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

// Summary renders a compact human-readable histogram of event kinds.
func (l *EventLog) Summary() string {
	h := l.KindHistogram()
	kinds := make([]string, 0, len(h))
	for k := range h {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-24s %d\n", k, h[EventKind(k)])
	}
	return b.String()
}
