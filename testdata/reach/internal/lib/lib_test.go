package lib

import "testing"

// A read in a test does not count: the gate lists tested.
func TestBumpTested(t *testing.T) {
	var k Knob
	k.Bump()
	if k.tested != 1 {
		t.Errorf("tested = %d, want 1", k.tested)
	}
}
