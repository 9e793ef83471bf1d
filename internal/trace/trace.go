// Package trace records position traces and exports run artefacts
// (event CSVs, position CSVs) for offline analysis and plotting.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
)

// Sample is one recorded pose of one subject.
type Sample struct {
	Time    time.Duration
	Subject string
	Pos     geom.Vec2
	Speed   float64
	Mode    string
}

// Source exposes the state the recorder samples.
type Source struct {
	ID    string
	Pos   func() geom.Vec2
	Speed func() float64
	Mode  func() string
}

// Recorder samples subject positions at a configurable period.
type Recorder struct {
	sources []Source
	period  time.Duration
	next    time.Duration
	samples []Sample
}

// NewRecorder returns a recorder sampling every period (default 1 s
// when non-positive).
func NewRecorder(period time.Duration, sources ...Source) *Recorder {
	if period <= 0 {
		period = time.Second
	}
	return &Recorder{sources: sources, period: period}
}

// Hook returns a sim post-step hook performing the sampling.
func (r *Recorder) Hook() sim.Hook {
	return func(env *sim.Env) {
		now := env.Clock.Now()
		if now < r.next {
			return
		}
		r.next = now + r.period
		for _, s := range r.sources {
			smp := Sample{Time: now, Subject: s.ID, Pos: s.Pos()}
			if s.Speed != nil {
				smp.Speed = s.Speed()
			}
			if s.Mode != nil {
				smp.Mode = s.Mode()
			}
			r.samples = append(r.samples, smp)
		}
	}
}

// Samples returns a copy of all recorded samples.
func (r *Recorder) Samples() []Sample {
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// Len returns the number of samples.
func (r *Recorder) Len() int { return len(r.samples) }

// WriteCSV writes the samples as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_seconds", "subject", "x", "y", "speed", "mode"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range r.samples {
		rec := []string{
			strconv.FormatFloat(s.Time.Seconds(), 'f', 3, 64),
			s.Subject,
			strconv.FormatFloat(s.Pos.X, 'f', 3, 64),
			strconv.FormatFloat(s.Pos.Y, 'f', 3, 64),
			strconv.FormatFloat(s.Speed, 'f', 3, 64),
			s.Mode,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write sample: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses samples previously written by WriteCSV; tests use it
// to check the writer's output.
func ReadCSV(rd io.Reader) ([]Sample, error) {
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

// sampleJSON is the stable JSONL wire form of a Sample.
type sampleJSON struct {
	T       float64 `json:"t_seconds"`
	Subject string  `json:"subject"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Speed   float64 `json:"speed"`
	Mode    string  `json:"mode,omitempty"`
}

// WriteJSONL streams samples as JSON lines (one sample per line), the
// machine-readable sibling of WriteCSV used by run artifacts.
func WriteJSONL(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for _, s := range samples {
		rec := sampleJSON{
			T:       s.Time.Seconds(),
			Subject: s.Subject,
			X:       s.Pos.X,
			Y:       s.Pos.Y,
			Speed:   s.Speed,
			Mode:    s.Mode,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("trace: encode sample: %w", err)
		}
	}
	return nil
}

// ReadJSONL parses samples previously written by WriteJSONL.
func ReadJSONL(rd io.Reader) ([]Sample, error) {
	dec := json.NewDecoder(rd)
	var out []Sample
	for dec.More() {
		var rec sampleJSON
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("trace: decode sample %d: %w", len(out), err)
		}
		out = append(out, Sample{
			Time:    time.Duration(rec.T * float64(time.Second)),
			Subject: rec.Subject,
			Pos:     geom.Vec2{X: rec.X, Y: rec.Y},
			Speed:   rec.Speed,
			Mode:    rec.Mode,
		})
	}
	return out, nil
}

// WriteEventCSV exports an event log as CSV.
func WriteEventCSV(w io.Writer, log *sim.EventLog) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_seconds", "tick", "kind", "subject", "detail"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, e := range log.Events() {
		rec := []string{
			strconv.FormatFloat(e.Time.Seconds(), 'f', 3, 64),
			strconv.FormatInt(e.Tick, 10),
			string(e.Kind),
			e.Subject,
			e.Detail,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write event: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
