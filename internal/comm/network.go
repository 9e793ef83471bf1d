package comm

import (
	"fmt"
	"time"

	"coopmrm/internal/sim"
)

// NetConfig configures the simulated radio network. The zero value is
// a perfect instantaneous channel; every knob degrades it
// independently, and a config with LossProb, ReorderProb, DupProb all
// zero and no Partitions behaves exactly like the pre-chaos network
// (it consumes the same RNG stream, so runs are byte-identical).
type NetConfig struct {
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter is the maximum extra random delay added per message.
	Jitter time.Duration
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// ReorderProb is the probability one scheduled delivery is held
	// back by an extra random delay in (0, ReorderWindow], letting
	// later-sent messages overtake it.
	ReorderProb float64
	// ReorderWindow bounds the extra reorder delay. Defaults to
	// DefaultReorderWindow when ReorderProb > 0 and the window is
	// unset.
	ReorderWindow time.Duration
	// DupProb is the probability one scheduled delivery is duplicated:
	// the copy carries the same Seq and payload but draws its own
	// jitter (and reorder) delay, so the two copies can arrive in any
	// order. The duplicate counts as an extra attempted delivery in
	// Stats, keeping delivered + dropped == sent.
	DupProb float64
	// Partitions are scheduled outage windows applied on the network
	// clock: a message is dropped when its link (or an endpoint's
	// radio) is inside a window either when it is sent or when it
	// would arrive.
	Partitions []Partition
}

// DefaultReorderWindow is the extra-delay bound used when ReorderProb
// is set but ReorderWindow is not.
const DefaultReorderWindow = 500 * time.Millisecond

// Validate reports configuration errors: probabilities outside [0, 1],
// negative delays, or malformed partition windows.
func (c NetConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LossProb", c.LossProb},
		{"ReorderProb", c.ReorderProb},
		{"DupProb", c.DupProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("comm: %s %v out of [0,1]", p.name, p.v)
		}
	}
	if c.Latency < 0 || c.Jitter < 0 || c.ReorderWindow < 0 {
		return fmt.Errorf("comm: negative delay in config")
	}
	for _, w := range c.Partitions {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Partition is one scheduled communication outage window, active for
// From <= t < Until on the network clock. A and B name the endpoints
// of the partitioned link; PartitionAny ("*") is a wildcard matching
// every endpoint, and an empty B is normalised to the wildcard, so
// {A: "truck1"} takes truck1's radio offline for the window and
// {A: "*", B: "*"} is a global blackout. Matching ignores direction.
type Partition struct {
	A, B  string
	From  time.Duration
	Until time.Duration
}

// PartitionAny is the wildcard endpoint of a Partition.
const PartitionAny = "*"

// Validate reports malformed windows.
func (p Partition) Validate() error {
	if p.A == "" {
		return fmt.Errorf("comm: partition window with empty A endpoint")
	}
	if p.Until <= p.From {
		return fmt.Errorf("comm: partition window [%v, %v) is empty", p.From, p.Until)
	}
	return nil
}

// blocks reports whether the window severs the directed attempt
// from -> to at time t.
func (p Partition) blocks(from, to string, t time.Duration) bool {
	if t < p.From || t >= p.Until {
		return false
	}
	b := p.B
	if b == "" {
		b = PartitionAny
	}
	match := func(pat, id string) bool { return pat == PartitionAny || pat == id }
	return (match(p.A, from) && match(b, to)) || (match(p.A, to) && match(b, from))
}

// DropCause classifies one failed delivery attempt.
type DropCause int

// Drop causes, in the order of the Breakdown fields.
const (
	// DropUnregistered: the recipient has no inbox.
	DropUnregistered DropCause = iota
	// DropNodeDown: the sender's or recipient's radio was offline — at
	// send time, or (recipient only) when the message would arrive.
	DropNodeDown
	// DropLinkDown: the pair was partitioned (SetLinkDown or a
	// scheduled Partition window) at send or arrival time.
	DropLinkDown
	// DropLoss: random channel loss (LossProb).
	DropLoss
	// DropSelf: a unicast addressed to its own sender.
	DropSelf
	numDropCauses
)

// Breakdown is the per-cause drop accounting. The fields sum exactly
// to the dropped total of Stats.
type Breakdown struct {
	Unregistered int64
	NodeDown     int64
	LinkDown     int64
	Loss         int64
	Self         int64
}

// Total returns the sum over all causes (== Stats dropped).
func (b Breakdown) Total() int64 {
	return b.Unregistered + b.NodeDown + b.LinkDown + b.Loss + b.Self
}

// Network is the shared medium. Endpoints register by constituent ID;
// Deliver moves due messages into inboxes each tick, re-checking node
// and link state at arrival time.
//
// The in-transit set is a binary min-heap keyed on
// (deliverAt, Seq, recipient) — the exact deterministic delivery
// order — so Deliver pops only the due envelopes instead of scanning,
// partitioning, and re-sorting the whole set every tick (the
// pre-change behaviour, now a test-only oracle of the differential
// tests). Inboxes are double-buffered and the
// broadcast fan-out list is scratch storage, so a steady-state
// send/deliver/receive tick allocates nothing.
type Network struct {
	cfg      NetConfig
	rng      *sim.RNG
	seq      int64
	now      time.Duration
	nowFn    func() time.Duration
	transit  envHeap
	inbox    map[string]*inboxBuf
	order    []string
	downNode map[string]bool
	downLink map[[2]string]bool

	// recipBuf is the scratch fan-out list reused across Send calls
	// (both unicast and broadcast), so Send allocates nothing once the
	// buffer has grown to the fleet size.
	recipBuf []string

	sent      int64
	dropped   int64
	droppedBy [numDropCauses]int64

	// freeBufs parks the endpoint inbox buffers between warm-rig runs:
	// Reset moves every registered inbox here and Register adopts one
	// back, so re-wiring the same fleet after a Reset allocates no new
	// inbox storage.
	freeBufs []*inboxBuf
}

type envelope struct {
	msg       Message
	to        string
	deliverAt time.Duration
}

// envLess is the deterministic delivery order: deliverAt, then Seq,
// then recipient. Envelopes comparing equal are necessarily identical
// payloads (same Seq means same Send call — an original and its chaos
// duplicate), so any tie-break among them delivers the same bytes.
func envLess(a, b envelope) bool {
	if a.deliverAt != b.deliverAt {
		return a.deliverAt < b.deliverAt
	}
	if a.msg.Seq != b.msg.Seq {
		return a.msg.Seq < b.msg.Seq
	}
	return a.to < b.to
}

// envHeap is a slice-backed binary min-heap ordered by envLess. It is
// hand-rolled rather than container/heap so push and pop stay free of
// interface boxing — the delivery tick is a hot path.
type envHeap []envelope

func (h *envHeap) push(e envelope) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !envLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// popMin removes and returns the minimum envelope. The heap must be
// non-empty.
func (h *envHeap) popMin() envelope {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = envelope{} // release the payload to the GC
	*h = s[:last]
	h.siftDown(0)
	return min
}

func (h *envHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && envLess(s[right], s[left]) {
			smallest = right
		}
		if !envLess(s[smallest], s[i]) {
			return
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// inboxBuf is one endpoint's double-buffered inbox: Deliver appends
// into cur, Receive hands cur to the caller and swaps in the drained
// prev buffer. The slice returned by Receive therefore stays intact
// until the *second* following Receive of the same endpoint — one
// full tick of safety margin — while steady-state delivery reuses the
// two backing arrays and allocates nothing.
type inboxBuf struct {
	cur, prev []Message
}

// NewNetwork returns a network using the given RNG for jitter, loss,
// reorder, and duplication draws. Panics on an invalid config
// (Validate), mirroring MustRegister: a malformed channel model is a
// programming error, not a runtime condition.
func NewNetwork(cfg NetConfig, rng *sim.RNG) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ReorderProb > 0 && cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	return &Network{
		cfg:      cfg,
		rng:      rng,
		inbox:    make(map[string]*inboxBuf),
		downNode: make(map[string]bool),
		downLink: make(map[[2]string]bool),
	}
}

// Reset returns the network to its just-constructed state for a new
// run under the given seed, retaining every backing allocation: the
// transit heap array, the per-endpoint inbox buffers (parked on
// freeBufs and re-adopted as the rig re-registers its fleet), and the
// scratch lists. All registrations are dropped — registration order
// drives broadcast fan-out order, so the rig must re-register
// endpoints in exactly its construction order for a reset network to
// be observationally identical to a fresh one (the warm-rig
// differential tests prove it byte for byte). The RNG reseeds in
// place to exactly the stream NewNetwork would have been handed.
func (n *Network) Reset(seed int64) {
	n.rng.Reseed(seed)
	n.seq = 0
	n.now = 0
	n.nowFn = nil
	clear(n.transit) // release Message payloads
	n.transit = n.transit[:0]
	for _, id := range n.order {
		box := n.inbox[id]
		clear(box.cur)
		box.cur = box.cur[:0]
		clear(box.prev)
		box.prev = box.prev[:0]
		n.freeBufs = append(n.freeBufs, box)
	}
	clear(n.inbox)
	clear(n.order)
	n.order = n.order[:0]
	clear(n.downNode)
	clear(n.downLink)
	clear(n.recipBuf)
	n.recipBuf = n.recipBuf[:0]
	n.sent = 0
	n.dropped = 0
	n.droppedBy = [numDropCauses]int64{}
}

// Register creates an inbox for the given ID. Duplicate registration
// is an error.
func (n *Network) Register(id string) error {
	if id == "" || id == Broadcast {
		return fmt.Errorf("comm: invalid endpoint ID %q", id)
	}
	if _, dup := n.inbox[id]; dup {
		return fmt.Errorf("comm: duplicate endpoint %q", id)
	}
	box := &inboxBuf{}
	if k := len(n.freeBufs); k > 0 {
		box = n.freeBufs[k-1]
		n.freeBufs[k-1] = nil
		n.freeBufs = n.freeBufs[:k-1]
	}
	n.inbox[id] = box
	n.order = append(n.order, id)
	return nil
}

// MustRegister is Register that panics on error.
func (n *Network) MustRegister(id string) {
	if err := n.Register(id); err != nil {
		panic(err)
	}
}

// Endpoints returns registered IDs in registration order.
func (n *Network) Endpoints() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// SetNodeDown takes a node's radio offline (both directions). Messages
// already in transit towards the node are dropped when they arrive —
// a radio that is dead at receipt cannot receive.
func (n *Network) SetNodeDown(id string, down bool) {
	if down {
		n.downNode[id] = true
	} else {
		delete(n.downNode, id)
	}
}

// NodeDown reports whether a node's radio is offline.
func (n *Network) NodeDown(id string) bool { return n.downNode[id] }

// SetLinkDown partitions the pair (both directions). Messages already
// in transit across the link are dropped when they arrive.
func (n *Network) SetLinkDown(a, b string, down bool) {
	if down {
		n.downLink[[2]string{a, b}] = true
		n.downLink[[2]string{b, a}] = true
	} else {
		delete(n.downLink, [2]string{a, b})
		delete(n.downLink, [2]string{b, a})
	}
}

// drop accounts one failed delivery attempt.
func (n *Network) drop(cause DropCause) {
	n.dropped++
	n.droppedBy[cause]++
}

// partitioned reports whether a scheduled Partition window severs the
// attempt from -> to at time t.
func (n *Network) partitioned(from, to string, t time.Duration) bool {
	for _, w := range n.cfg.Partitions {
		if w.blocks(from, to, t) {
			return true
		}
	}
	return false
}

// Send queues a message for delivery. Broadcast fans out to every
// registered endpoint except the sender. Returns the assigned Seq.
//
// Contract: a unicast with To == From is rejected — the radio is not a
// loopback device, and self-addressed traffic almost always indicates
// a wiring bug — but the attempt is accounted (one sent, one dropped,
// cause Self) so it stays visible in Stats. Sending from an
// unregistered or downed node, or to an unregistered endpoint,
// silently drops (the radio is dead; the sender cannot know) — every
// attempted delivery is accounted in Stats either way.
func (n *Network) Send(m Message) int64 {
	now := n.Now()
	n.seq++
	m.Seq = n.seq
	m.SentAt = now
	recipients := n.recipients(m)
	n.sent += int64(len(recipients))
	for _, to := range recipients {
		if to == m.From {
			n.drop(DropSelf)
			continue
		}
		if _, registered := n.inbox[to]; !registered {
			n.drop(DropUnregistered)
			continue
		}
		if n.downNode[m.From] || n.downNode[to] {
			n.drop(DropNodeDown)
			continue
		}
		if n.downLink[[2]string{m.From, to}] || n.partitioned(m.From, to, now) {
			n.drop(DropLinkDown)
			continue
		}
		if n.cfg.LossProb > 0 && n.rng.Bool(n.cfg.LossProb) {
			n.drop(DropLoss)
			continue
		}
		n.transit.push(envelope{msg: m, to: to, deliverAt: now + n.delay()})
		if n.cfg.DupProb > 0 && n.rng.Bool(n.cfg.DupProb) {
			// The duplicate is an extra attempted delivery with its
			// own delay draws, so the copies can arrive in any order.
			n.sent++
			n.transit.push(envelope{msg: m, to: to, deliverAt: now + n.delay()})
		}
	}
	return m.Seq
}

// delay draws one delivery delay: base latency, plus jitter, plus —
// with probability ReorderProb — an extra hold-back in
// (0, ReorderWindow]. The draws happen only when the matching knob is
// enabled, so a zero-chaos config consumes exactly the pre-chaos RNG
// stream.
func (n *Network) delay() time.Duration {
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Range(0, float64(n.cfg.Jitter)))
	}
	if n.cfg.ReorderProb > 0 && n.rng.Bool(n.cfg.ReorderProb) {
		d += time.Duration(n.rng.Range(0, float64(n.cfg.ReorderWindow)))
	}
	return d
}

// Now returns the network's view of the current time: the attached
// clock when one is wired (via AttachClock or the first Hook tick),
// otherwise the time of the last Deliver. Send stamps SentAt and
// schedules delivery from this caller-visible clock, so a message sent
// after the tick's Deliver (or between engine runs) is not stamped
// with a stale timestamp. The result never runs backwards: it is
// clamped to the last Deliver time so in-transit ordering stays
// consistent.
func (n *Network) Now() time.Duration {
	if n.nowFn != nil {
		if t := n.nowFn(); t > n.now {
			return t
		}
	}
	return n.now
}

// AttachClock wires the caller-visible clock used to stamp sends.
// Network.Hook attaches the engine clock automatically.
func (n *Network) AttachClock(now func() time.Duration) { n.nowFn = now }

// recipients lists the intended delivery attempts of m into the
// network's scratch buffer: the named endpoint for a unicast (even if
// unregistered or the sender itself — Send accounts those as drops),
// or every registered endpoint except the sender for a broadcast. The
// returned slice is only valid until the next Send.
func (n *Network) recipients(m Message) []string {
	n.recipBuf = n.recipBuf[:0]
	if m.To != Broadcast {
		n.recipBuf = append(n.recipBuf, m.To)
		return n.recipBuf
	}
	for _, id := range n.order {
		if id != m.From {
			n.recipBuf = append(n.recipBuf, id)
		}
	}
	return n.recipBuf
}

// Deliver advances the network clock to now and moves due messages to
// inboxes in deterministic order (deliverAt, then Seq, then
// recipient). Every due envelope is re-checked against node and link
// state at its scheduled arrival instant: a recipient whose radio died
// after the send, a link partitioned mid-flight, or a scheduled
// Partition window covering the arrival all drop the message (the
// sender's state no longer matters — the datagram already left its
// radio). Drops are accounted per cause in StatsBreakdown.
//
// The in-transit heap is keyed on exactly that order, so delivery is
// a pop loop over the due prefix — O(due · log pending) — instead of
// the pre-change scan + partition + sort over everything in flight.
func (n *Network) Deliver(now time.Duration) {
	n.now = now
	for len(n.transit) > 0 && n.transit[0].deliverAt <= now {
		n.deliverOne(n.transit.popMin())
	}
}

// deliverOne applies the arrival-time re-check to one due envelope and
// either drops it or appends it to the recipient's inbox.
func (n *Network) deliverOne(e envelope) {
	switch {
	case n.downNode[e.to]:
		n.drop(DropNodeDown)
	case n.downLink[[2]string{e.msg.From, e.to}] || n.partitioned(e.msg.From, e.to, e.deliverAt):
		n.drop(DropLinkDown)
	default:
		box := n.inbox[e.to]
		box.cur = append(box.cur, e.msg)
	}
}

// Receive drains and returns the inbox of id, in delivery order.
//
// The returned slice is owned by the network (inboxes are
// double-buffered): it stays intact until the second following
// Receive of the same endpoint, after which its backing array is
// reused. Callers must consume or copy it within the current tick —
// every entity in this repository ranges over it immediately.
func (n *Network) Receive(id string) []Message {
	box := n.inbox[id]
	if box == nil {
		return nil
	}
	msgs := box.cur
	box.cur, box.prev = box.prev[:0], msgs
	if len(msgs) == 0 {
		return nil
	}
	return msgs
}

// Pending returns the number of messages in transit.
func (n *Network) Pending() int { return len(n.transit) }

// Stats returns per-recipient delivery accounting: sent counts every
// attempted delivery (a broadcast to k recipients counts k, and a
// chaos duplicate counts one extra), dropped counts the attempts that
// failed — at send time or at arrival time. Invariants:
// 0 <= dropped <= sent, and delivered + dropped + in-transit == sent.
func (n *Network) Stats() (sent, dropped int64) { return n.sent, n.dropped }

// StatsBreakdown returns the per-cause drop accounting. The field sum
// equals the dropped total of Stats, so chaos experiments can
// attribute every lost message to unregistered addressing, dead
// radios, severed links, random loss, or self-addressing.
func (n *Network) StatsBreakdown() Breakdown {
	return Breakdown{
		Unregistered: n.droppedBy[DropUnregistered],
		NodeDown:     n.droppedBy[DropNodeDown],
		LinkDown:     n.droppedBy[DropLinkDown],
		Loss:         n.droppedBy[DropLoss],
		Self:         n.droppedBy[DropSelf],
	}
}

// Hook returns a sim pre-step hook that delivers due messages each
// tick. It also attaches the engine clock so Send stamps messages with
// the live simulated time instead of the last Deliver time.
func (n *Network) Hook() sim.Hook {
	return func(env *sim.Env) {
		if n.nowFn == nil {
			n.AttachClock(env.Clock.Now)
		}
		n.Deliver(env.Clock.Now())
	}
}
