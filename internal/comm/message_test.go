package comm

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"coopmrm/internal/geom"
)

// centiOracle is the two-decimal text round trip Centi replaces.
func centiOracle(v float64) float64 {
	q, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64)
	if err != nil {
		panic(err)
	}
	return q
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestCentiMatchesStrconv checks Centi bit for bit against the text
// round trip: random positions within ±2 km, both float neighbours of
// every half-cent point there, exact binary ties (which round to
// even), negatives and −0, and the values that take the text path.
func TestCentiMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := Centi(v), centiOracle(v); !sameFloat(got, want) {
			t.Fatalf("Centi(%v = %#x) = %v, want %v", v, math.Float64bits(v), got, want)
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.004, -0.004, 0.005, -0.005, 0.015, -0.015,
		0.125, 0.375, -0.125, -0.375, 2.675, 1.005, 1e-300, -1e-300, 5e-324,
		1 << 44, -(1 << 44), 1<<45 - 0.125, -(1<<45 - 0.125),
		1 << 45, -(1 << 45), 1 << 52, 1e20, -1e20, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		check(v)
	}
	if got := Centi(0.125); got != 0.12 {
		t.Errorf("Centi(0.125) = %v, want 0.12 (tie to even)", got)
	}
	if got := Centi(0.375); got != 0.38 {
		t.Errorf("Centi(0.375) = %v, want 0.38 (tie to even)", got)
	}
	if got := Centi(math.Copysign(0, -1)); !math.Signbit(got) {
		t.Errorf("Centi(-0) = %v, want -0", got)
	}
	rng := rand.New(rand.NewSource(1))
	for range 50000 {
		check(rng.Float64()*4000 - 2000)
		// Both neighbours of a half-cent point: the decimal ties the
		// text rounding resolves by the exact binary value.
		h := (float64(rng.Intn(400000)-200000) + 0.5) / 100
		check(h)
		check(math.Nextafter(h, math.Inf(1)))
		check(math.Nextafter(h, math.Inf(-1)))
		// Exact binary ties: odd multiples of 1/8, whose hundredfold
		// ends in exactly .5.
		check(float64(2*rng.Intn(16000)-16000+1) / 8)
	}
}

// FuzzCenti holds Centi to the text round trip on arbitrary floats.
func FuzzCenti(f *testing.F) {
	for _, v := range []float64{0, 0.125, 0.375, -0.005, 1.005, 2.675, 1 << 45, math.Inf(-1)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if got, want := Centi(v), centiOracle(v); !sameFloat(got, want) {
			t.Fatalf("Centi(%v = %#x) = %v, want %v", v, math.Float64bits(v), got, want)
		}
	})
}

// TestWirePosFormatsBack checks that a position on the wire grid
// renders to the digits it came from, which the director's reroute
// event relies on.
func TestWirePosFormatsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for range 50000 {
		p := geom.V(rng.Float64()*4000-2000, rng.NormFloat64()*50)
		q := WirePos(p)
		for _, a := range [][2]float64{{p.X, q.X}, {p.Y, q.Y}} {
			if raw, wire := strconv.FormatFloat(a[0], 'f', 2, 64), strconv.FormatFloat(a[1], 'f', 2, 64); raw != wire {
				t.Fatalf("%v on the wire grid is %v: renders %s, want %s", a[0], a[1], wire, raw)
			}
		}
	}
}

// TestMessageSize pins the message at 80 bytes. Every swap in the
// delivery heap copies a whole envelope, which embeds the message, so
// a larger message slows every V2X tick. Padded to 136 bytes, the size
// of a message that carried the beacon fields inline, it ran E18's
// quick 200-pair status-sharing row at 243 ticks/s against 339, and
// the 50-pair row at 4,040 against 4,980 (medians of 10 alternating
// runs on a 2-core host). Content belongs behind Payload.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n != 80 {
		t.Errorf("comm.Message is %d bytes, want 80", n)
	}
}
