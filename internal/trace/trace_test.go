package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

func TestRecorderSamplesAtPeriod(t *testing.T) {
	pos := geom.V(0, 0)
	r := NewRecorder(time.Second, Source{
		ID:    "v1",
		Pos:   func() geom.Vec2 { return pos },
		Speed: func() float64 { return 5 },
		Mode:  func() string { return "nominal" },
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.AddPostHook(r.Hook())
	e.RunFor(3 * time.Second)
	// Samples at t=0,1,2 (strictly below 3s at hook time).
	if r.Len() != 3 {
		t.Errorf("samples = %d, want 3", r.Len())
	}
	s := r.Samples()[0]
	if s.Subject != "v1" || s.Speed != 5 || s.Mode != "nominal" {
		t.Errorf("sample = %+v", s)
	}
}

func TestRecorderDefaultPeriod(t *testing.T) {
	r := NewRecorder(0)
	if r.period != time.Second {
		t.Errorf("default period = %v", r.period)
	}
}

func TestRecorderCSV(t *testing.T) {
	r := NewRecorder(time.Second, Source{
		ID:  "v1",
		Pos: func() geom.Vec2 { return geom.V(1.5, -2) },
	})
	e := sim.NewEngine(sim.Config{Step: time.Second})
	e.AddPostHook(r.Hook())
	e.RunFor(2 * time.Second)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "t_seconds,subject,x,y,speed,mode\n") {
		t.Errorf("header wrong: %q", out)
	}
	if !strings.Contains(out, "v1,1.500,-2.000") {
		t.Errorf("row missing: %q", out)
	}
}

// The JSONL stream round-trips losslessly and carries stable field
// names (the run-artifact schema).
func TestJSONLRoundTrip(t *testing.T) {
	in := []Sample{
		{Time: 0, Subject: "v1", Pos: geom.V(1.5, -2), Speed: 3, Mode: "nominal"},
		{Time: 2500 * time.Millisecond, Subject: "v2", Pos: geom.V(0, 7.25), Speed: 0},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, field := range []string{`"t_seconds":0`, `"subject":"v1"`, `"x":1.5`, `"y":-2`, `"speed":3`, `"mode":"nominal"`} {
		if !strings.Contains(first, field) {
			t.Errorf("JSONL line missing %s: %s", field, first)
		}
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost samples: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("sample %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"t_seconds":0}` + "\nnot json\n")); err == nil {
		t.Error("garbage line should error")
	}
}

func TestWriteEventCSV(t *testing.T) {
	log := sim.NewEventLog()
	log.Append(sim.Event{Time: 2 * time.Second, Tick: 20, Kind: sim.EventMRCReached,
		Subject: "v1", Detail: "reached MRC shoulder"})
	var buf bytes.Buffer
	if err := WriteEventCSV(&buf, log); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mrc.reached,v1,reached MRC shoulder") {
		t.Errorf("event row missing: %q", out)
	}
	if !strings.Contains(out, "2.000,20") {
		t.Errorf("time/tick missing: %q", out)
	}
}

// Round trip: record -> WriteCSV -> ReadCSV.
func TestCSVRoundTrip(t *testing.T) {
	pos := geom.V(0, 0)
	speed := 0.0
	rec := NewRecorder(time.Second, Source{
		ID:    "v1",
		Pos:   func() geom.Vec2 { return pos },
		Speed: func() float64 { return speed },
		Mode:  func() string { return "nominal" },
	})
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.AddPostHook(rec.Hook())
	for i := 0; i < 50; i++ {
		pos = geom.V(float64(i), float64(2*i))
		speed = float64(i % 7)
		e.RunTick()
	}

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Samples()
	if len(got) != len(want) {
		t.Fatalf("round trip lost samples: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Subject != want[i].Subject || got[i].Mode != want[i].Mode {
			t.Fatalf("sample %d meta differs: %+v vs %+v", i, got[i], want[i])
		}
		if !got[i].Pos.ApproxEq(want[i].Pos, 1e-3) ||
			math.Abs(got[i].Speed-want[i].Speed) > 1e-3 {
			t.Fatalf("sample %d numeric differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("x,v,notanumber,0,0,m\n")); err == nil {
		t.Error("bad numbers should error")
	}
}
