package coop

import (
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/sim"
)

// A gap request lost to a partition is retried with backoff; when the
// link heals before the give-up instant, the retry gets through and
// the MRM proceeds agreed (concerted), not as the conservative
// fallback.
func TestAgreementRetrySucceedsAfterHeal(t *testing.T) {
	// The pair is severed before the request fires, so the first
	// attempt is dropped at the link; the cut heals at 3s.
	r := newRigNet(t, 2, comm.NetConfig{
		Latency:    50 * time.Millisecond,
		Partitions: []comm.Partition{{A: "t1", B: "t2", Until: 3 * time.Second}},
	})
	pols := []*AgreementSeeking{
		NewAgreementSeeking(NewBase(r.hauls[0], r.net, r.w.Graph(), time.Second), []string{"t2"}),
		NewAgreementSeeking(NewBase(r.hauls[1], r.net, r.w.Graph(), time.Second), []string{"t1"}),
	}
	for _, p := range pols {
		r.e.MustRegister(p)
	}
	r.e.RunFor(2 * time.Second)
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	r.e.RunFor(time.Second)
	if r.trucks[0].MRMActive() || r.trucks[0].InMRC() {
		t.Fatal("MRM should be deferred while the first attempt is lost")
	}
	// The cut heals before the first retry (ackTimeout, 3s):
	// the resend crosses, t2 consents, and the exchange completes.
	r.e.RunFor(5 * time.Second)
	if !r.trucks[0].MRMActive() && !r.trucks[0].InMRC() {
		t.Fatal("agreed MRM should have triggered after the heal")
	}
	if got := r.trucks[0].MRMReason(); !contains(got, "agreed") {
		t.Errorf("reason = %q, want agreed (not the timeout fallback)", got)
	}
	// The grant makes the MRM concerted (Definition 3); the helper may
	// already have released by now if t1 reached MRC, so check the log.
	if r.e.Env().Log.Count(sim.EventMRMConcerted) == 0 {
		t.Error("agreed MRM should be concerted")
	}
}

// A vehicle whose own radio is dead skips the doomed exchange: no
// consent can ever arrive, so the designed-in rule is the immediate
// conservative stop — not 21 seconds of retries into nothing.
func TestAgreementNoCommsImmediateFallback(t *testing.T) {
	r := newRig(t, 2)
	pols := []*AgreementSeeking{
		NewAgreementSeeking(NewBase(r.hauls[0], r.net, r.w.Graph(), time.Second), []string{"t2"}),
		NewAgreementSeeking(NewBase(r.hauls[1], r.net, r.w.Graph(), time.Second), []string{"t1"}),
	}
	for _, p := range pols {
		r.e.MustRegister(p)
	}
	r.e.RunFor(time.Second)
	r.trucks[0].ApplyFault(fault.Fault{ID: "radio", Target: "t1", Kind: fault.KindComm,
		Severity: 1, Permanent: true})
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	// Well before the default 21s give-up instant.
	r.e.RunFor(2 * time.Second)
	if !r.trucks[0].MRMActive() && !r.trucks[0].InMRC() {
		t.Fatal("dead-radio vehicle should fall back immediately")
	}
	if got := r.trucks[0].MRMReason(); !contains(got, "no comms") {
		t.Errorf("reason = %q, want no-comms fallback", got)
	}
	if r.trucks[0].CurrentMRC().ID != "in_place" {
		t.Errorf("fallback MRC = %v, want in_place", r.trucks[0].CurrentMRC().ID)
	}
	if r.trucks[1].Assisting() {
		t.Error("t2 must not be slowed by a request that was never sent")
	}
}
