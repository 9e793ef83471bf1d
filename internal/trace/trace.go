// Package trace records position traces and exports run artefacts
// (event CSVs, position CSVs) for offline analysis and plotting.
package trace

import (
	"encoding/csv"
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
