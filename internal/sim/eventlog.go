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

// EventLog is an append-only in-memory event record. Every query
// scans the list: the experiments, the artifact capture and the
// summaries query a log once, after its run, never per tick.
type EventLog struct {
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append adds an event.
func (l *EventLog) Append(e Event) { l.events = append(l.events, e) }

// Reset empties the log for a new run while keeping its backing array
// — the warm-rig counterpart of NewEventLog. Events are zeroed first
// to release their Fields maps.
func (l *EventLog) Reset() {
	clear(l.events)
	l.events = l.events[:0]
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Events returns a copy of all events.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// ByKind returns all events of the given kind, in order (nil when
// there are none).
func (l *EventLog) ByKind(kind EventKind) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of events of the given kind.
func (l *EventLog) Count(kind EventKind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// First returns the first event of the given kind and whether one
// exists.
func (l *EventLog) First(kind EventKind) (Event, bool) {
	for _, e := range l.events {
		if e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

// Last returns the last event of the given kind and whether one
// exists.
func (l *EventLog) Last(kind EventKind) (Event, bool) {
	for i := len(l.events) - 1; i >= 0; i-- {
		if l.events[i].Kind == kind {
			return l.events[i], true
		}
	}
	return Event{}, false
}

// KindHistogram returns a map of kind to count, useful in reports.
func (l *EventLog) KindHistogram() map[EventKind]int {
	h := make(map[EventKind]int)
	for _, e := range l.events {
		h[e.Kind]++
	}
	return h
}

// WriteJSON streams the log as JSON lines to w.
func (l *EventLog) WriteJSON(w io.Writer) error { return WriteEvents(w, l.events) }

// WriteEvents streams events as JSON lines to w, one event per line.
func WriteEvents(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("encode event: %w", err)
		}
	}
	return nil
}

// ReadJSON parses a JSON-lines stream written by WriteEvents back into
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
