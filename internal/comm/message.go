// Package comm simulates the V2X communication substrate: typed
// messages exchanged between constituents (and a TMS) over a network
// with configurable latency, loss, reordering, node outages and
// scheduled link partitions. Delivery is deterministic for a given
// seed and happens at tick boundaries, before entities step.
//
// The cooperative/collaborative classes of the paper are
// distinguished by the *content and direction* of the messages they
// exchange (SAE J3216): status-sharing uses Status only, intent-
// sharing adds Intent, agreement-seeking adds Request/Response, and
// prescriptive/orchestrated add Command.
package comm

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"coopmrm/internal/geom"
)

// Type classifies a message by its role in the J3216-style taxonomy.
type Type int

// Message types.
const (
	TypeStatus Type = iota + 1
	TypeIntent
	TypeRequest
	TypeResponse
	TypeCommand
	TypeHeartbeat
	TypeTask
)

var typeNames = map[Type]string{
	TypeStatus:    "status",
	TypeIntent:    "intent",
	TypeRequest:   "request",
	TypeResponse:  "response",
	TypeCommand:   "command",
	TypeHeartbeat: "heartbeat",
	TypeTask:      "task",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Broadcast is the destination for messages addressed to everyone.
const Broadcast = "*"

// Message is one V2X datagram. Its content sits behind one pointer,
// Payload, so a message stays 80 bytes: the delivery heap copies the
// whole envelope on every swap.
type Message struct {
	Seq     int64         `json:"seq"`
	From    string        `json:"from"`
	To      string        `json:"to"` // Broadcast for all
	Type    Type          `json:"type"`
	Topic   string        `json:"topic"`
	Payload *Body         `json:"payload,omitempty"`
	SentAt  time.Duration `json:"sentAt"`
}

// Body is a message's content. What a status beacon reports is typed,
// so a beacon costs one allocation and no formatting: the sender's
// position, ADS mode and nearest route node. An MRM intent and a
// reroute order name a position the same way. Everything else is text
// under the Key constants. A sent body is shared by every recipient
// and must not be changed.
type Body struct {
	// Pos is the named position when HasPos is set, on the wire's
	// centimetre grid (WirePos).
	Pos    geom.Vec2
	HasPos bool
	Mode   string
	Node   string
	Fields map[string]string
}

// Get returns the text field under key, or "".
func (m Message) Get(key string) string {
	if m.Payload == nil {
		return ""
	}
	return m.Payload.Fields[key]
}

// Mode returns the ADS mode a status beacon reports, or "".
func (m Message) Mode() string {
	if m.Payload == nil {
		return ""
	}
	return m.Payload.Mode
}

// Node returns the route node the message names, or "".
func (m Message) Node() string {
	if m.Payload == nil {
		return ""
	}
	return m.Payload.Node
}

// Pos returns the position the message names; ok is false when it
// names none.
func (m Message) Pos() (pos geom.Vec2, ok bool) {
	if m.Payload == nil {
		return geom.Vec2{}, false
	}
	return m.Payload.Pos, m.Payload.HasPos
}

// NewMessage builds a message; the network assigns Seq and SentAt on
// send.
func NewMessage(from, to string, typ Type, topic string, body *Body) Message {
	return Message{From: from, To: to, Type: typ, Topic: topic, Payload: body}
}

// WirePos quantizes a position to the resolution the V2X position
// format carries, Centi on each axis.
func WirePos(p geom.Vec2) geom.Vec2 { return geom.V(Centi(p.X), Centi(p.Y)) }

// Centi rounds v to hundredths exactly as a two-decimal text field
// would: the result is bit-equal to
// strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64), without
// the text. It rounds the exact product v·100 to the nearest integer,
// ties to even, and divides by 100; both steps are correctly rounded,
// as the text round trip is. NaN, ±Inf and |v| ≥ 2⁴⁵, where v·100
// may not fit the integer range of a float64, take the text path.
func Centi(v float64) float64 {
	if !(math.Abs(v) < 1<<45) {
		q, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64)
		return q
	}
	p := v * 100
	e := math.FMA(v, 100, -p) // v·100 == p + e exactly
	k := math.RoundToEven(p)
	// k is p's nearest integer; p + e lies on the other side of a tie
	// in p only when e pushes it there.
	switch d := p - k; {
	case d == 0.5 && e > 0:
		k++
	case d == -0.5 && e < 0:
		k--
	}
	return k / 100
}
