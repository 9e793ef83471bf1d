// Package server implements coopmrmd: the experiment harness offered
// as a long-running HTTP job service with a content-addressed result
// cache — simulation capability hosted as infrastructure rather than
// a one-shot CLI, per the infrastructure-assisted ToC model.
//
// The design leans entirely on the repo's determinism guarantees: a
// run's output bytes are fully identified by (experiment, options,
// seed plan) — worker counts provably do not change them — so results
// are cached under the SHA-256 of that canonical identity, identical
// submissions coalesce onto one underlying run (single-flight: the
// key IS the job ID), and a cache hit is byte-identical to the run it
// replaces. Completed results are evicted least-recently-fetched past
// a size bound. Seed-sweep jobs stream and checkpoint through the
// campaign/v1 machinery; on SIGTERM the server drains gracefully
// (in-flight campaigns park at a final checkpoint, losing no folded
// seed) and resumes them on the next start.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coopmrm"
	"coopmrm/internal/artifact"
)

// Schema identifiers of the server's durable and wire documents.
const (
	SchemaJob     = "coopmrm/job/v1"
	SchemaStatus  = "coopmrm/jobstatus/v1"
	SchemaMetrics = "coopmrm/servemetrics/v1"
)

// Config tunes a Server.
type Config struct {
	// StateDir roots all durable state: jobs/<key>/ holds each job's
	// spec (job.json), campaign checkpoint, and result artifacts.
	StateDir string
	// CacheMaxBytes bounds the total on-disk size of completed job
	// results; least-recently-fetched results are evicted past it.
	// <= 0 defaults to 1 GiB.
	CacheMaxBytes int64
	// MaxJobs bounds concurrently running jobs (<= 0: 2).
	MaxJobs int
	// Parallel is each job's runner pool size (<= 0: NumCPU).
	Parallel int
	// JobTimeout bounds one job's run time (<= 0: 15 minutes);
	// requests may set a shorter per-job timeout, never a longer one.
	JobTimeout time.Duration
	// CheckpointEvery is the folded-seed interval between campaign
	// checkpoint writes for seed-sweep jobs (<= 0: 16).
	CheckpointEvery int

	// foldHook, when non-nil, observes every campaign fold before the
	// drain and timeout checks. Test-only: it makes drain triggers
	// deterministic instead of timing-dependent.
	foldHook func(key string, done, total int)
}

type jobState string

const (
	stateQueued      jobState = "queued"
	stateRunning     jobState = "running"
	stateDone        jobState = "done"
	stateFailed      jobState = "failed"
	stateInterrupted jobState = "interrupted" // drained mid-run; resumes on restart
)

// job is one submission's in-memory record. status/errMsg/done/total
// are guarded by mu; size and access are guarded by the server mutex
// (they belong to the cache index, not the job lifecycle).
type job struct {
	key     string
	spec    CanonicalJob
	timeout time.Duration

	mu     sync.Mutex
	status jobState
	errMsg string
	done   int
	total  int

	size   int64 // result bytes on disk (done jobs only)
	access int64 // LRU clock value of the last touch
}

func (j *job) state() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// jobFile is the durable form of a job (jobs/<key>/job.json), written
// atomically on every state transition. Its presence with status
// "done" is the commit point the result cache trusts.
type jobFile struct {
	Schema string       `json:"schema"`
	Key    string       `json:"key"`
	Job    CanonicalJob `json:"job"`
	Status jobState     `json:"status"`
	Error  string       `json:"error,omitempty"`
}

// Server is the coopmrmd job server. Create with New, serve Handler.
type Server struct {
	cfg   Config
	start time.Time

	sem chan struct{}  // bounds concurrently running jobs
	wg  sync.WaitGroup // in-flight executors, for drain

	mu       sync.Mutex
	jobs     map[string]*job
	clock    int64 // LRU clock, incremented per touch
	draining bool

	hits       atomic.Int64 // submissions answered from the cache
	misses     atomic.Int64 // submissions that started (or restarted) a run
	coalesced  atomic.Int64 // submissions folded onto an in-flight run
	evictions  atomic.Int64
	executions atomic.Int64 // underlying job executions started
	runsDone   atomic.Int64 // completed experiment runs (seeds count individually)

	mux httpMux
}

var (
	errDraining = errors.New("server draining")
	errTimeout  = errors.New("job timeout")
)

// New builds a server over StateDir, recovering any durable state a
// previous process left: completed jobs re-enter the result cache
// (LRU-ordered by their job.json mtimes) and unfinished ones — queued,
// drained, or torn down by a crash — re-enqueue and resume from their
// last checkpoint.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("server: Config.StateDir required")
	}
	if cfg.CacheMaxBytes <= 0 {
		cfg.CacheMaxBytes = 1 << 30
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 15 * time.Minute
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 16
	}
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxJobs),
		jobs:  make(map[string]*job),
	}
	if err := os.MkdirAll(s.jobsRoot(), 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

func (s *Server) jobsRoot() string         { return filepath.Join(s.cfg.StateDir, "jobs") }
func (s *Server) jobDir(key string) string { return filepath.Join(s.jobsRoot(), key) }

// recover rebuilds the in-memory index from disk.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsRoot())
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	type rec struct {
		j     *job
		mtime time.Time
	}
	var done, pending []rec
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		path := filepath.Join(s.jobsRoot(), ent.Name(), "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			continue // a dir without a durable spec is garbage; skip it
		}
		var jf jobFile
		if err := json.Unmarshal(data, &jf); err != nil ||
			jf.Schema != SchemaJob || jf.Key != ent.Name() {
			continue
		}
		var mtime time.Time
		if info, err := os.Stat(path); err == nil {
			mtime = info.ModTime()
		}
		j := &job{
			key:     jf.Key,
			spec:    jf.Job,
			timeout: s.cfg.JobTimeout,
			status:  jf.Status,
			errMsg:  jf.Error,
			total:   jobTotal(jf.Job),
		}
		switch jf.Status {
		case stateDone:
			j.done = j.total
			j.size = dirSize(s.jobDir(j.key))
			done = append(done, rec{j, mtime})
		case stateFailed:
			// Kept visible for status queries; a resubmission re-runs.
			s.jobs[j.key] = j
		default:
			// queued, running (crash mid-run), interrupted (drain):
			// run again — seed jobs resume from their checkpoint.
			j.status = stateQueued
			pending = append(pending, rec{j, mtime})
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].mtime.Before(done[b].mtime) })
	sort.Slice(pending, func(a, b int) bool { return pending[a].mtime.Before(pending[b].mtime) })
	s.mu.Lock()
	for _, r := range done {
		s.jobs[r.j.key] = r.j
		s.touchLocked(r.j)
	}
	s.evictLocked()
	s.mu.Unlock()
	for _, r := range pending {
		s.mu.Lock()
		s.jobs[r.j.key] = r.j
		s.mu.Unlock()
		if err := s.persist(r.j); err != nil {
			return err
		}
		s.spawn(r.j)
	}
	return nil
}

// submit registers a job for the canonical spec and returns its record
// plus a verdict: "cached" (result already on disk), "coalesced"
// (identical run in flight), "requeued" (previous attempt failed), or
// "queued" (new run). Identical submissions always share one job.
func (s *Server) submit(cj CanonicalJob, timeout time.Duration) (*job, string, error) {
	if timeout <= 0 || timeout > s.cfg.JobTimeout {
		timeout = s.cfg.JobTimeout
	}
	key := cj.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, "", errDraining
	}
	if j := s.jobs[key]; j != nil {
		switch j.state() {
		case stateDone:
			s.hits.Add(1)
			s.touchLocked(j)
			return j, "cached", nil
		case stateQueued, stateRunning:
			s.coalesced.Add(1)
			return j, "coalesced", nil
		default: // failed, or interrupted outside a drain: run again
			s.misses.Add(1)
			j.mu.Lock()
			j.status = stateQueued
			j.errMsg = ""
			j.mu.Unlock()
			if err := s.persist(j); err != nil {
				return nil, "", err
			}
			s.spawn(j)
			return j, "requeued", nil
		}
	}
	j := &job{key: key, spec: cj, timeout: timeout, status: stateQueued, total: jobTotal(cj)}
	if err := os.MkdirAll(s.jobDir(key), 0o755); err != nil {
		return nil, "", err
	}
	if err := s.persist(j); err != nil {
		return nil, "", err
	}
	s.jobs[key] = j
	s.misses.Add(1)
	s.spawn(j)
	return j, "queued", nil
}

func (s *Server) lookup(key string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[key]
}

// spawn hands the job to an executor goroutine gated by the MaxJobs
// semaphore. A job that reaches the head of the queue during a drain
// stays queued (it is already durable) and runs on the next start.
func (s *Server) spawn(j *job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		if s.isDraining() {
			return
		}
		s.run(j)
	}()
}

// run executes one job to a terminal state.
func (s *Server) run(j *job) {
	s.executions.Add(1)
	s.setState(j, stateRunning, "")
	e, ok := experimentByID(j.spec.Experiment)
	if !ok { // unreachable: Canonicalize validated the ID
		s.setState(j, stateFailed, "unknown experiment "+j.spec.Experiment)
		return
	}
	deadline := time.Now().Add(j.timeout)
	sweep := len(j.spec.Seeds) > 0
	var cfg coopmrm.CampaignConfig
	if sweep {
		cfg = coopmrm.CampaignConfig{
			Checkpoint: filepath.Join(s.jobDir(j.key), "checkpoint.json"),
			Every:      s.cfg.CheckpointEvery,
			Resume:     true,
			OnFold: func(done, total int) error {
				j.mu.Lock()
				j.done, j.total = done, total
				j.mu.Unlock()
				if s.cfg.foldHook != nil {
					s.cfg.foldHook(j.key, done, total)
				}
				if s.isDraining() {
					// Wrapping ErrCampaignDrain makes the campaign write
					// a final checkpoint before unwinding — the drain
					// loses no folded seed.
					return fmt.Errorf("%w: %w", errDraining, coopmrm.ErrCampaignDrain)
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("%w after %s", errTimeout, j.timeout)
				}
				return nil
			},
		}
	}

	type outcome struct {
		res coopmrm.ExperimentArtifacts
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("job panicked: %v", r)}
			}
		}()
		opt := j.spec.options()
		var out outcome
		if sweep {
			out.res, out.err = coopmrm.SweepSeedsStreamWithArtifacts(e, opt, j.spec.Seeds, s.cfg.Parallel, cfg)
		} else {
			var res []coopmrm.ExperimentArtifacts
			res, out.err = coopmrm.RunSetWithArtifacts([]coopmrm.Experiment{e}, opt, s.cfg.Parallel)
			if out.err == nil {
				out.res = res[0]
			}
		}
		ch <- out
	}()

	var out outcome
	if sweep {
		// Seed jobs self-terminate between folds via OnFold (drain or
		// timeout), checkpointing as they go; the capture pass after
		// the fold is bounded at eight runs.
		out = <-ch
	} else {
		// A single run has no mid-run preemption point; on timeout the
		// job is reported failed and its goroutine abandoned (the
		// buffered channel absorbs its eventual result, which is
		// discarded).
		timer := time.NewTimer(j.timeout)
		defer timer.Stop()
		select {
		case out = <-ch:
		case <-timer.C:
			s.setState(j, stateFailed, fmt.Sprintf("timeout after %s (run abandoned)", j.timeout))
			return
		}
	}
	switch {
	case out.err == nil:
		if err := s.finish(j, out.res); err != nil {
			s.setState(j, stateFailed, err.Error())
		}
	case errors.Is(out.err, errDraining):
		s.setState(j, stateInterrupted, "")
	default:
		s.setState(j, stateFailed, out.err.Error())
	}
}

// finish writes the completed job's artifacts and publishes it to the
// cache. WriteBundle is atomic and job.json's "done" transition is the
// commit point, so a crash anywhere in here re-runs the job rather
// than serving a torn result. The done flip, the run count and the
// cache size change together under s.mu, which /v1/metrics holds
// while it reads all three.
func (s *Server) finish(j *job, res coopmrm.ExperimentArtifacts) error {
	opt := j.spec.options()
	bench := artifact.NewBench(s.cfg.Parallel, opt.Seed, jobTotal(j.spec), opt.Quick)
	outDir := filepath.Join(s.jobDir(j.key), "out")
	if err := coopmrm.WriteRunArtifacts(outDir, []coopmrm.ExperimentArtifacts{res}, bench); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	j.status = stateDone
	j.done = j.total
	j.errMsg = ""
	j.mu.Unlock()
	if err := s.persist(j); err != nil {
		return err
	}
	s.runsDone.Add(int64(jobTotal(j.spec)))
	j.size = dirSize(s.jobDir(j.key))
	s.touchLocked(j)
	s.evictLocked()
	return nil
}

// setState transitions a job and persists the transition; persistence
// failures are logged, not fatal — the in-memory state is primary
// while this process lives, and a stale durable state only means a
// re-run after restart.
func (s *Server) setState(j *job, st jobState, msg string) {
	j.mu.Lock()
	j.status = st
	j.errMsg = msg
	j.mu.Unlock()
	if err := s.persist(j); err != nil {
		log.Printf("server: persist %.12s: %v", j.key, err)
	}
}

// persist writes job.json atomically (temp file + rename, the
// WriteCampaign discipline).
func (s *Server) persist(j *job) error {
	j.mu.Lock()
	jf := jobFile{Schema: SchemaJob, Key: j.key, Job: j.spec, Status: j.status, Error: j.errMsg}
	j.mu.Unlock()
	data, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return fmt.Errorf("server: marshal job: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(s.jobDir(j.key), "job.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// touchLocked moves a job to the most-recently-used end of the cache
// order. Callers hold s.mu.
func (s *Server) touchLocked(j *job) {
	s.clock++
	j.access = s.clock
}

// evictLocked enforces CacheMaxBytes over completed results: the
// least-recently-fetched done jobs are dropped — from the index and
// from disk — until the cache fits. Running, queued and failed jobs
// are never evicted. Callers hold s.mu.
func (s *Server) evictLocked() {
	var total int64
	for _, j := range s.jobs {
		if j.state() == stateDone {
			total += j.size
		}
	}
	for total > s.cfg.CacheMaxBytes {
		var victim *job
		for _, j := range s.jobs {
			if j.state() != stateDone {
				continue
			}
			if victim == nil || j.access < victim.access {
				victim = j
			}
		}
		if victim == nil {
			return
		}
		delete(s.jobs, victim.key)
		if err := os.RemoveAll(s.jobDir(victim.key)); err != nil {
			log.Printf("server: evict %.12s: %v", victim.key, err)
		}
		s.evictions.Add(1)
		total -= victim.size
	}
}

// BeginDrain stops accepting submissions and asks running jobs to
// park: seed campaigns abort at their next fold with a final
// checkpoint and are marked interrupted; queued jobs stay queued.
// Both resume automatically on the next server start.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// WaitJobs blocks until every in-flight executor has returned or the
// timeout elapses, reporting whether the drain completed.
func (s *Server) WaitJobs(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// dirSize returns the total size of regular files under root.
func dirSize(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
