package coop

import (
	"testing"
	"time"
)

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.Timeout != 3*time.Second || p.Backoff != 2 || p.MaxAttempts != 3 {
		t.Errorf("defaults = %+v, want 3s/2/3", p)
	}
}

// The retry deadlines back off deterministically: resends fire at 3s
// and 9s, expiry at 21s — and Expired is reported exactly once.
func TestExchangeBackoffSchedule(t *testing.T) {
	x := NewExchange(RetryPolicy{})
	x.Begin(0, []string{"p1"})
	type step struct {
		at   time.Duration
		want Outcome
	}
	for _, s := range []step{
		{time.Second, OutcomeWait},
		{3 * time.Second, OutcomeResend}, // attempt 2 armed, deadline 9s
		{5 * time.Second, OutcomeWait},
		{9 * time.Second, OutcomeResend}, // attempt 3 armed, deadline 21s
		{20 * time.Second, OutcomeWait},
		{21 * time.Second, OutcomeExpired},
		{22 * time.Second, OutcomeWait}, // expired only once
		{time.Hour, OutcomeWait},
	} {
		if got := x.Poll(s.at); got != s.want {
			t.Fatalf("Poll(%v) = %v, want %v (attempt %d)", s.at, got, s.want, x.Attempt())
		}
	}
	if x.active {
		t.Error("exchange still active after expiry")
	}
}

// Acks are cumulative across attempts: a peer heard during attempt 1
// stays acknowledged through later attempts, and completion disarms
// the exchange without ever reporting expiry.
func TestExchangeCumulativeAcks(t *testing.T) {
	x := NewExchange(RetryPolicy{})
	x.Begin(0, []string{"p1", "p2"})
	x.Ack("p1", true)
	if x.Complete() {
		t.Fatal("one of two acks should not complete")
	}
	if got := x.Outstanding(); len(got) != 1 || got[0] != "p2" {
		t.Fatalf("Outstanding = %v, want [p2]", got)
	}
	if got := x.Poll(3 * time.Second); got != OutcomeResend {
		t.Fatalf("Poll = %v, want resend for the laggard", got)
	}
	if !x.acks["p1"] {
		t.Fatal("ack lost across the retry")
	}
	x.Ack("p2", true)
	if !x.Complete() {
		t.Fatal("all acks in: exchange should be complete")
	}
	if got := x.Poll(time.Hour); got != OutcomeWait {
		t.Fatalf("completed exchange polled %v, want wait", got)
	}
	if x.active {
		t.Error("completed exchange should disarm")
	}
}

// A denial is an answer, not consent: the peer stays outstanding and
// the exchange can still expire.
func TestExchangeDenialStaysOutstanding(t *testing.T) {
	x := NewExchange(RetryPolicy{Timeout: time.Second, MaxAttempts: 1})
	x.Begin(0, []string{"p1"})
	x.Ack("p1", false)
	if x.Complete() || x.acks["p1"] {
		t.Fatal("denial must not count as consent")
	}
	if got := x.Outstanding(); len(got) != 1 {
		t.Fatalf("Outstanding = %v, want the denier", got)
	}
	if got := x.Poll(time.Second); got != OutcomeExpired {
		t.Fatalf("Poll = %v, want expired", got)
	}
}

// An exchange with no required peers never completes — there is nobody
// to agree with — so it runs the full retry schedule and expires.
func TestExchangeEmptyPeersExpires(t *testing.T) {
	x := NewExchange(RetryPolicy{Timeout: time.Second, Backoff: 2, MaxAttempts: 2})
	x.Begin(0, nil)
	if x.Complete() {
		t.Fatal("empty exchange must not complete")
	}
	if got := x.Poll(time.Second); got != OutcomeResend {
		t.Fatalf("Poll = %v, want resend", got)
	}
	if got := x.Poll(3 * time.Second); got != OutcomeExpired {
		t.Fatalf("Poll = %v, want expired at 1+2=3s", got)
	}
}

// Ack before Begin is ignored; Begin clears prior state.
func TestExchangeBeginResets(t *testing.T) {
	x := NewExchange(RetryPolicy{})
	x.Ack("p1", true) // no-op: nothing armed
	x.Begin(0, []string{"p1"})
	if x.acks["p1"] {
		t.Fatal("pre-Begin ack must not survive")
	}
	x.Ack("p1", true)
	x.Begin(10*time.Second, []string{"p1"})
	if x.acks["p1"] || x.Attempt() != 1 {
		t.Fatal("Begin must clear acks and reset the attempt counter")
	}
	if got := x.Poll(12 * time.Second); got != OutcomeWait {
		t.Fatalf("deadline must re-arm from the new Begin time: %v", got)
	}
}
