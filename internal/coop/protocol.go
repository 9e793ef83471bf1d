package coop

import "time"

// The retry schedule of the shared ack/timeout/retry primitive of the
// cooperative classes: how long to wait for acknowledgements, how the
// wait grows between attempts, and when to give up. The waits are 3 s,
// 6 s and 12 s, so an exchange expires 21 s after its first send. The
// paper's taxonomy requires every V2X-dependent class to degrade
// deterministically when communication is absent — "alternative plans
// must be considered" — so the give-up instant is a pure function of
// the start time, never of message arrival.
const (
	// ackTimeout is the ack wait of the first attempt.
	ackTimeout = 3 * time.Second
	// ackBackoff multiplies the wait after every failed attempt.
	ackBackoff = 2
	// ackAttempts bounds the number of sends before giving up.
	ackAttempts = 3
)

// Outcome is what Poll tells the owning policy to do.
type Outcome int

// Poll outcomes.
const (
	// OutcomeWait: the current attempt's deadline has not passed.
	OutcomeWait Outcome = iota
	// OutcomeResend: the attempt timed out and a retry is due — the
	// policy must resend its request now.
	OutcomeResend
	// OutcomeExpired: every attempt timed out; the policy must fall
	// back down the Fig. 1b hierarchy. Reported exactly once.
	OutcomeExpired
)

// Exchange tracks one outstanding request/acknowledge round across
// retries: which peers still owe an ack, which attempt is in flight,
// and when the current attempt times out. It is pure state driven by
// the caller's clock — it never touches the network itself, so policy
// code decides what a "resend" means (re-broadcast, unicast to the
// laggards, ...). Acks are cumulative across attempts: a peer heard
// during attempt 1 stays acknowledged during attempt 2.
type Exchange struct {
	want     []string
	acks     map[string]bool
	attempt  int
	deadline time.Duration
	active   bool
}

// NewExchange returns an idle exchange.
func NewExchange() *Exchange {
	return &Exchange{acks: make(map[string]bool)}
}

// Begin arms the exchange: the first attempt is considered sent at
// now, awaiting acks from every listed peer. Prior ack state is
// cleared.
func (x *Exchange) Begin(now time.Duration, peers []string) {
	x.want = append(x.want[:0], peers...)
	x.acks = make(map[string]bool, len(peers))
	x.attempt = 1
	x.deadline = now + ackTimeout
	x.active = true
}

// Attempt returns the 1-based attempt currently in flight (0 before
// Begin).
func (x *Exchange) Attempt() int { return x.attempt }

// Ack records one peer's answer. A denial (ok == false) is remembered
// as outstanding: the peer answered but did not consent, so the
// exchange can only complete if a later attempt changes its mind.
func (x *Exchange) Ack(from string, ok bool) {
	if x.attempt == 0 {
		return
	}
	x.acks[from] = ok
}

// Complete reports whether every required peer has consented. An
// exchange with no required peers never completes (there is nobody to
// agree with); it expires instead.
func (x *Exchange) Complete() bool {
	if len(x.want) == 0 {
		return false
	}
	for _, p := range x.want {
		if !x.acks[p] {
			return false
		}
	}
	return true
}

// Outstanding returns the peers that have not consented yet, in the
// order passed to Begin.
func (x *Exchange) Outstanding() []string {
	var out []string
	for _, p := range x.want {
		if !x.acks[p] {
			out = append(out, p)
		}
	}
	return out
}

// Poll advances the retry state machine. While the exchange is active
// and incomplete it returns OutcomeWait until the current attempt's
// deadline, then either OutcomeResend (arming the next attempt with
// the backed-off timeout — the caller must resend now) or, after
// ackAttempts timeouts, OutcomeExpired exactly once. Completion is the
// caller's check: an exchange whose Complete() turned true is simply
// disarmed on the next Poll.
func (x *Exchange) Poll(now time.Duration) Outcome {
	if !x.active {
		return OutcomeWait
	}
	if x.Complete() {
		x.active = false
		return OutcomeWait
	}
	if now < x.deadline {
		return OutcomeWait
	}
	if x.attempt >= ackAttempts {
		x.active = false
		return OutcomeExpired
	}
	wait := float64(ackTimeout)
	for i := 1; i < x.attempt+1; i++ {
		wait *= ackBackoff
	}
	x.attempt++
	x.deadline = now + time.Duration(wait)
	return OutcomeResend
}
