package core

import (
	"strings"
	"testing"
	"time"

	"coopmrm/internal/fault"
)

// The gate watchdog: a policy that defers an internally assessed MRM
// forever (dead, partitioned away, mis-retrying) must not hold the
// vehicle in the crawl state past GateTimeout — the MRM triggers
// anyway, reason suffixed "(gate timeout)".
func TestGateWatchdogFires(t *testing.T) {
	e, c, _ := newRig(t)
	c.MRMGate = func(*Constituent, string) bool { return false } // a policy that never decides
	e.RunFor(time.Second)
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(GateTimeout - time.Second)
	if c.MRMActive() || c.InMRC() {
		t.Fatal("MRM should still be deferred inside the window")
	}
	if c.SpeedCap() > 2 {
		t.Errorf("deferred vehicle should crawl, cap = %v", c.SpeedCap())
	}
	e.RunFor(2 * time.Second)
	if !c.MRMActive() && !c.InMRC() {
		t.Fatal("watchdog should trigger the MRM past GateTimeout")
	}
	if got := c.MRMReason(); !strings.Contains(got, "gate timeout") {
		t.Errorf("reason = %q, want gate-timeout suffix", got)
	}
}

// The watchdog clock resets when the gate opens: a grant right before
// the deadline triggers with the policy's reason, not the watchdog's.
func TestGateGrantBeatsWatchdog(t *testing.T) {
	e, c, _ := newRig(t)
	allow := false
	c.MRMGate = func(*Constituent, string) bool { return allow }
	c.ApplyFault(fault.Fault{ID: "blind", Target: "truck1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(GateTimeout - time.Second)
	if c.MRMActive() || c.InMRC() {
		t.Fatal("MRM should still be deferred before the deadline")
	}
	allow = true
	e.RunFor(time.Second)
	if !c.MRMActive() && !c.InMRC() {
		t.Fatal("granted MRM should trigger")
	}
	if got := c.MRMReason(); strings.Contains(got, "gate timeout") {
		t.Errorf("reason = %q; the grant should win, not the watchdog", got)
	}
}
