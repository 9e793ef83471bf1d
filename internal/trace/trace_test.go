package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
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
	s := r.samples[0]
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
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.samples
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
	if _, err := readCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := readCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := readCSV(bytes.NewBufferString("x,v,notanumber,0,0,m\n")); err == nil {
		t.Error("bad numbers should error")
	}
}

// readCSV parses samples previously written by WriteCSV, the oracle
// of the writer's round trip.
func readCSV(rd io.Reader) ([]Sample, error) {
	cr := csv.NewReader(rd)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	var out []Sample
	for i, rec := range records {
		if i == 0 && len(rec) > 0 && rec[0] == "t_seconds" {
			continue // header
		}
		if len(rec) != 6 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 6", i, len(rec))
		}
		secs, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i, err)
		}
		x, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d x: %w", i, err)
		}
		y, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d y: %w", i, err)
		}
		speed, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d speed: %w", i, err)
		}
		out = append(out, Sample{
			Time:    time.Duration(secs * float64(time.Second)),
			Subject: rec[1],
			Pos:     geom.Vec2{X: x, Y: y},
			Speed:   speed,
			Mode:    rec[5],
		})
	}
	return out, nil
}
