package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

type counter struct {
	id    string
	steps int
	order *[]string
}

func (c *counter) ID() string { return c.id }
func (c *counter) Step(env *Env) {
	c.steps++
	if c.order != nil {
		*c.order = append(*c.order, c.id)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(50 * time.Millisecond)
	if c.Now() != 0 || c.Tick() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance()
	c.Advance()
	if c.Now() != 100*time.Millisecond || c.Tick() != 2 {
		t.Errorf("clock = %v tick %d", c.Now(), c.Tick())
	}
	if c.StepSeconds() != 0.05 {
		t.Errorf("StepSeconds = %v", c.StepSeconds())
	}
}

func TestClockDefaultStep(t *testing.T) {
	c := NewClock(0)
	if c.Step() != 100*time.Millisecond {
		t.Errorf("default step = %v", c.Step())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Float64() == NewRNG(2).Float64() {
		t.Error("different seeds identical first draw (unlikely)")
	}
}

func TestRNGRange(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.Range(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
	if g.Range(3, 3) != 3 {
		t.Error("degenerate Range should return lo")
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(7)
	if g.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !g.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if g.Bool(0.3) {
			n++
		}
	}
	if n < 2500 || n > 3500 {
		t.Errorf("Bool(0.3) frequency = %d/10000", n)
	}
}

func TestEngineStepOrder(t *testing.T) {
	var order []string
	e := NewEngine(Config{Step: 10 * time.Millisecond})
	e.MustRegister(&counter{id: "b", order: &order})
	e.MustRegister(&counter{id: "a", order: &order})
	e.RunFor(30 * time.Millisecond)
	want := []string{"b", "a", "b", "a", "b", "a"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestEngineDuplicateID(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Register(&counter{id: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(&counter{id: "x"}); err == nil {
		t.Error("duplicate ID should error")
	}
	if err := e.Register(&counter{id: ""}); err == nil {
		t.Error("empty ID should error")
	}
}

func TestEngineHooks(t *testing.T) {
	e := NewEngine(Config{Step: 10 * time.Millisecond})
	var seq []string
	e.AddPreHook(func(env *Env) { seq = append(seq, "pre") })
	e.MustRegister(&counter{id: "c", order: &seq})
	e.AddPostHook(func(env *Env) { seq = append(seq, "post") })
	e.RunFor(20 * time.Millisecond)
	want := "pre,c,post,pre,c,post"
	if strings.Join(seq, ",") != want {
		t.Errorf("seq = %v", seq)
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine(Config{Step: 10 * time.Millisecond})
	c := &counter{id: "c"}
	e.MustRegister(c)
	e.RunFor(100 * time.Millisecond)
	if c.steps != 10 {
		t.Errorf("steps = %d, want 10", c.steps)
	}
}

func TestEventLogQueries(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Kind: EventMRMStarted, Subject: "v1"})
	l.Append(Event{Kind: EventMRCReached, Subject: "v1"})
	l.Append(Event{Kind: EventMRMStarted, Subject: "v2"})
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if got := len(l.ByKind(EventMRMStarted)); got != 2 {
		t.Errorf("ByKind = %d", got)
	}
	if l.Count(EventMRCReached) != 1 {
		t.Error("Count wrong")
	}
	first, ok := l.First(EventMRMStarted)
	if !ok || first.Subject != "v1" {
		t.Error("First wrong")
	}
	last, ok := l.Last(EventMRMStarted)
	if !ok || last.Subject != "v2" {
		t.Error("Last wrong")
	}
	if _, ok := l.First(EventCollision); ok {
		t.Error("First of absent kind should be false")
	}
	h := l.KindHistogram()
	if h[EventMRMStarted] != 2 || h[EventMRCReached] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestEventLogJSONAndSummary(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Kind: EventInfo, Subject: "x", Detail: "hello"})
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hello"`) {
		t.Errorf("JSON = %s", buf.String())
	}
	if !strings.Contains(l.Summary(), "info") {
		t.Errorf("Summary = %s", l.Summary())
	}
}

func TestEventLogJSONRoundTrip(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Time: 2 * time.Second, Tick: 20, Kind: EventMRMStarted,
		Subject: "v1", Detail: "fault", Fields: map[string]string{"kind": "sensor"}})
	l.Append(Event{Time: 5 * time.Second, Tick: 50, Kind: EventMRCReached, Subject: "v1"})
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip lost events: %d vs %d", got.Len(), l.Len())
	}
	for i, e := range got.Events() {
		want := l.Events()[i]
		if e.Time != want.Time || e.Tick != want.Tick || e.Kind != want.Kind ||
			e.Subject != want.Subject || e.Detail != want.Detail ||
			e.Fields["kind"] != want.Fields["kind"] {
			t.Errorf("event %d: %+v != %+v", i, e, want)
		}
	}
	if _, err := ReadJSON(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage should error")
	}
}

func TestEnvEmit(t *testing.T) {
	e := NewEngine(Config{Step: 10 * time.Millisecond})
	env := e.Env()
	env.Emit(EventInfo, "s", "d")
	env.EmitFields(EventInfo, "s2", "d2", map[string]string{"k": "v"})
	evs := env.Log.Events()
	if len(evs) != 2 || evs[1].Fields["k"] != "v" {
		t.Errorf("events = %+v", evs)
	}
}

// Regression: EmitFields used to store the caller's map by reference,
// so mutating (or reusing) the map after the emit retroactively
// corrupted the recorded event. The log must own a copy.
func TestEmitFieldsCopiesMap(t *testing.T) {
	e := NewEngine(Config{Step: 10 * time.Millisecond})
	env := e.Env()
	fields := map[string]string{"mode": "nominal"}
	env.EmitFields(EventInfo, "truck1", "beacon", fields)
	fields["mode"] = "mrc" // caller reuses its map for the next emit
	delete(fields, "mode")
	fields["other"] = "x"
	ev := env.Log.Events()[0]
	if got := ev.Fields["mode"]; got != "nominal" {
		t.Errorf("recorded field mutated after emit: mode = %q, want %q", got, "nominal")
	}
	if _, leaked := ev.Fields["other"]; leaked {
		t.Error("key added after emit leaked into the recorded event")
	}
	// Nil stays nil (no empty-map churn in the serialized log).
	env.EmitFields(EventInfo, "truck1", "bare", nil)
	if ev := env.Log.Events()[1]; ev.Fields != nil {
		t.Errorf("nil fields map became %v, want nil", ev.Fields)
	}
}

func TestEngineDeterministicRuns(t *testing.T) {
	run := func() string {
		e := NewEngine(Config{Step: 10 * time.Millisecond, Seed: 99})
		e.AddPostHook(func(env *Env) {
			if env.RNG.Bool(0.5) {
				env.Emit(EventInfo, "coin", "heads")
			}
		})
		e.RunFor(100 * time.Millisecond)
		var buf bytes.Buffer
		_ = e.Env().Log.WriteJSON(&buf)
		return buf.String()
	}
	if run() != run() {
		t.Error("identical configs produced different logs")
	}
}

func TestEngineEntitiesAndString(t *testing.T) {
	e := NewEngine(Config{Step: 10 * time.Millisecond})
	a := &counter{id: "a"}
	b := &counter{id: "b"}
	e.MustRegister(a)
	e.MustRegister(b)
	ents := e.Entities()
	if len(ents) != 2 || ents[0].ID() != "a" || ents[1].ID() != "b" {
		t.Errorf("entities = %v", ents)
	}
	c := NewClock(50 * time.Millisecond)
	c.Advance()
	if got := c.String(); !strings.Contains(got, "tick 1") {
		t.Errorf("clock string = %q", got)
	}
}

func TestRNGMiscDraws(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		if v := g.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	_ = g.NormFloat64()
	p := g.Perm(5)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Perm not a permutation: %v", p)
	}
	xs := []int{1, 2, 3, 4, 5}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	if len(xs) != 5 {
		t.Error("Shuffle lost elements")
	}
}
