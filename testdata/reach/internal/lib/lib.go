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

// Knob has one field main sets and one that no program writes.
type Knob struct {
	Set   int
	Unset int
}

// Sum reads both fields.
func (k Knob) Sum() int { return k.Set + k.Unset }
