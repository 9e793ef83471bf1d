package coopmrm

import (
	"context"
	"path/filepath"
	"strconv"
	"time"

	"coopmrm/internal/artifact"
	"coopmrm/internal/comm"
	"coopmrm/internal/fault"
	"coopmrm/internal/metrics"
	"coopmrm/internal/runner"
	"coopmrm/internal/sim"
)

// Observe records one finished rig run into the Options artifact
// recorder: the metrics report, the event log, and (when the rig has
// them) network accounting and injected-fault history. A no-op when no
// recorder is attached, so experiments call it unconditionally. Any of
// log, net, inj may be nil.
func (o Options) Observe(name string, rep metrics.Report, log *sim.EventLog,
	net *comm.Network, inj *fault.Injector) {
	if o.Artifacts == nil {
		return
	}
	o.Artifacts.Record(artifact.CaptureRun(name, rep, log, net, inj))
}

// ObserveBench records one fine-grained timing measurement (tick
// throughput of a rig run) into the bench stream. A no-op without a
// recorder. Details end up in bench.json only — never in bundles — so
// experiments may feed them from the wall clock without breaking the
// bundle determinism contract.
func (o Options) ObserveBench(d artifact.BenchDetail) {
	if o.Artifacts == nil {
		return
	}
	o.Artifacts.RecordDetail(d)
}

// ExperimentArtifacts couples one experiment's table with the rig runs
// it recorded and the wall-clock time the job took. For seed sweeps
// Wall is the per-seed sum and WallSd/WallN carry the sample standard
// deviation and count of the per-seed walls — the variance that lets
// benchdiff gate on a confidence interval instead of a fixed
// threshold.
type ExperimentArtifacts struct {
	Experiment Experiment
	Table      Table
	Runs       []artifact.Run
	Details    []artifact.BenchDetail
	Wall       time.Duration
	WallSd     time.Duration
	WallN      int
}

// RunSetWithArtifacts is RunSet with observability: every job gets its
// own artifact recorder (never shared between workers, so bundles are
// byte-identical to the serial path for any worker count) and its
// wall-clock duration is measured inside the job.
func RunSetWithArtifacts(es []Experiment, opt Options, parallel int) ([]ExperimentArtifacts, error) {
	return runner.Map(context.Background(), parallel, len(es),
		func(_ context.Context, i int) (ExperimentArtifacts, error) {
			return runObserved(es[i], opt), nil
		})
}

// runObserved runs e once with a private artifact recorder and times
// the run.
func runObserved(e Experiment, opt Options) ExperimentArtifacts {
	opt.Artifacts = artifact.NewRecorder()
	start := time.Now()
	table := e.Run(opt)
	return ExperimentArtifacts{
		Experiment: e,
		Table:      table,
		Runs:       opt.Artifacts.Runs(),
		Details:    opt.Artifacts.Details(),
		Wall:       time.Since(start),
	}
}

// SweepSeedsStreamWithArtifacts is SweepSeedsStream with
// observability. The fold runs bare; afterwards one observation pass
// re-runs the plan's first few seeds with recorders, and their runs
// are merged in seed order under a "seed=<s>/" prefix. The captured
// runs therefore depend only on the seed plan — never on where an
// interrupted campaign resumed. Wall is the sum of the folded seeds'
// run times, with WallSd/WallN their sample sd and count.
func SweepSeedsStreamWithArtifacts(e Experiment, opt Options, seeds []int64, parallel int,
	cfg CampaignConfig) (ExperimentArtifacts, error) {
	table, wall, err := sweepSeedsStream(e, opt, seeds, parallel, cfg)
	if err != nil {
		return ExperimentArtifacts{}, err
	}
	out := ExperimentArtifacts{
		Experiment: e,
		Table:      table,
		Wall:       wall.total,
		WallSd:     wall.sd(),
		WallN:      int(wall.n),
	}
	captured := seeds[:min(len(seeds), streamRunsCaptureCap)]
	obs, err := runner.Map(context.Background(), parallel, len(captured),
		func(_ context.Context, i int) (ExperimentArtifacts, error) {
			return runObserved(e, opt.WithSeed(captured[i])), nil
		})
	if err != nil {
		return ExperimentArtifacts{}, err
	}
	for i, o := range obs {
		prefix := "seed=" + strconv.FormatInt(captured[i], 10) + "/"
		for _, run := range o.Runs {
			run.Name = prefix + run.Name
			out.Runs = append(out.Runs, run)
		}
		for _, d := range o.Details {
			d.ID = prefix + d.ID
			out.Details = append(out.Details, d)
		}
	}
	return out, nil
}

// WriteRunArtifacts writes one artifact bundle per experiment under
// dir plus the run-level bench.json. The bundles depend only on the
// experiment outputs (deterministic per seed); bench.json carries the
// wall-clock accounting and is intentionally not deterministic.
func WriteRunArtifacts(dir string, results []ExperimentArtifacts, bench artifact.Bench) error {
	for _, res := range results {
		b := artifact.Bundle{
			Table: artifact.Table{
				ID:     res.Table.ID,
				Title:  res.Table.Title,
				Paper:  res.Table.Paper,
				Note:   res.Table.Note,
				Header: res.Table.Header,
				Rows:   res.Table.Rows,
			},
			Runs: res.Runs,
		}
		if err := artifact.WriteBundle(dir, b); err != nil {
			return err
		}
		bench.AddStats(res.Table.ID, res.Wall, res.WallSd, res.WallN, len(res.Runs), len(res.Table.Rows))
		for _, d := range res.Details {
			bench.AddDetail(d)
		}
	}
	return artifact.WriteBench(filepath.Join(dir, "bench.json"), bench)
}
