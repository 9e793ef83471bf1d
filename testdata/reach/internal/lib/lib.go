// Package lib holds one case of each kind the reachability gate tells
// apart.
package lib

// Used is reached from main.
func Used() int { return helper() }

func helper() int { return 1 }

// Allowed is reached by nothing, but the fixture allowlists it.
func Allowed() {}

// Dead is reached by nothing.
func Dead() int { return 2 }

type orphan struct{ n int }

func (o orphan) get() int { return o.n }

// Named is printed through fmt.Stringer only.
type Named int

func (Named) String() string { return "named" }

// Knob has one field main sets and one that no program writes, and
// unexported state that Sum reads, that only a test reads, and that
// nothing reads.
type Knob struct {
	Set   int
	Unset int

	count   int
	tested  int
	written int
}

// Sum reads both exported fields and count.
func (k Knob) Sum() int { return k.Set + k.Unset + k.count }

// Bump records a call in all three unexported fields.
func (k *Knob) Bump() {
	k.count++
	k.tested = k.count
	k.written++
}
