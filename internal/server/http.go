package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"coopmrm"
)

// httpMux keeps server.go free of a direct net/http dependency in its
// struct definition; the handlers live here.
type httpMux = *http.ServeMux

// statusDoc is the jobstatus/v1 wire form shared by the submit and
// status endpoints.
type statusDoc struct {
	Schema     string      `json:"schema"`
	ID         string      `json:"id"`
	Experiment string      `json:"experiment"`
	Status     string      `json:"status"`
	Error      string      `json:"error,omitempty"`
	Cached     bool        `json:"cached,omitempty"`
	Coalesced  bool        `json:"coalesced,omitempty"`
	Progress   progressDoc `json:"progress"`
	Artifact   string      `json:"artifact,omitempty"` // fetch path, set once done
}

type progressDoc struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// metricsDoc is the servemetrics/v1 wire form of GET /v1/metrics.
type metricsDoc struct {
	Schema        string  `json:"schema"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Jobs          struct {
		Queued      int `json:"queued"`
		Running     int `json:"running"`
		Done        int `json:"done"`
		Failed      int `json:"failed"`
		Interrupted int `json:"interrupted"`
	} `json:"jobs"`
	Cache struct {
		Entries   int     `json:"entries"`
		Bytes     int64   `json:"bytes"`
		MaxBytes  int64   `json:"max_bytes"`
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Coalesced int64   `json:"coalesced"`
		Evictions int64   `json:"evictions"`
		HitRatio  float64 `json:"hit_ratio"`
	} `json:"cache"`
	Throughput struct {
		Executions    int64   `json:"executions"`
		RunsCompleted int64   `json:"runs_completed"`
		RunsPerSec    float64 `json:"runs_per_sec"`
	} `json:"throughput"`
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/bench", s.handleBench)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux = mux
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// decodeJobRequest is the strict wire decoder of POST /v1/jobs: a
// field the API does not define — a typo, or a retired option such as
// "stream" or "shards" — is an error, never silently ignored.
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	cj, err := Canonicalize(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout := time.Duration(req.TimeoutSeconds * float64(time.Second))
	j, verdict, err := s.submit(cj, timeout)
	switch {
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "server draining; resubmit after restart")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusAccepted
	if verdict == "cached" {
		code = http.StatusOK
	}
	writeJSON(w, code, s.statusOf(j, verdict))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job (expired from the cache? resubmit — runs are deterministic)")
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j, ""))
}

// handleArtifact streams the completed job's bundle as a deterministic
// tar: fetching the same cached result twice — or fetching a re-run of
// the same job on any server — yields identical bytes. bench.json is
// deliberately not in the tar (it is the one wall-clock, and therefore
// non-deterministic, artifact); fetch it from /bench.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if st := j.state(); st != stateDone {
		httpError(w, http.StatusConflict, "job is %s, artifact not available", st)
		return
	}
	s.mu.Lock()
	s.touchLocked(j)
	s.mu.Unlock()
	bundleDir := filepath.Join(s.jobDir(j.key), "out", j.spec.Experiment)
	w.Header().Set("Content-Type", "application/x-tar")
	if err := writeBundleTar(w, bundleDir, j.spec.Experiment+"/"); err != nil {
		// Headers are gone; all we can do is abort the stream.
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleBench(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if st := j.state(); st != stateDone {
		httpError(w, http.StatusConflict, "job is %s, bench not available", st)
		return
	}
	data, err := os.ReadFile(filepath.Join(s.jobDir(j.key), "out", "bench.json"))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var doc metricsDoc
	doc.Schema = SchemaMetrics
	doc.UptimeSeconds = time.Since(s.start).Seconds()
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.state() {
		case stateQueued:
			doc.Jobs.Queued++
		case stateRunning:
			doc.Jobs.Running++
		case stateDone:
			doc.Jobs.Done++
			doc.Cache.Entries++
			doc.Cache.Bytes += j.size
		case stateFailed:
			doc.Jobs.Failed++
		case stateInterrupted:
			doc.Jobs.Interrupted++
		}
	}
	// Read under s.mu: finish publishes a job's done state, size and
	// run count together under it.
	doc.Throughput.RunsCompleted = s.runsDone.Load()
	s.mu.Unlock()
	doc.Cache.MaxBytes = s.cfg.CacheMaxBytes
	doc.Cache.Hits = s.hits.Load()
	doc.Cache.Misses = s.misses.Load()
	doc.Cache.Coalesced = s.coalesced.Load()
	doc.Cache.Evictions = s.evictions.Load()
	if lookups := doc.Cache.Hits + doc.Cache.Misses; lookups > 0 {
		doc.Cache.HitRatio = float64(doc.Cache.Hits) / float64(lookups)
	}
	doc.Throughput.Executions = s.executions.Load()
	if doc.UptimeSeconds > 0 {
		doc.Throughput.RunsPerSec = float64(doc.Throughput.RunsCompleted) / doc.UptimeSeconds
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper,omitempty"`
	}
	var out []entry
	for _, e := range append(coopmrm.AllExperiments(), coopmrm.AllAblations()...) {
		out = append(out, entry{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, out)
}

// statusOf snapshots a job into its wire form. verdict is only set on
// submit responses ("cached"/"coalesced"/...).
func (s *Server) statusOf(j *job, verdict string) statusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := statusDoc{
		Schema:     SchemaStatus,
		ID:         j.key,
		Experiment: j.spec.Experiment,
		Status:     string(j.status),
		Error:      j.errMsg,
		Cached:     verdict == "cached",
		Coalesced:  verdict == "coalesced",
		Progress:   progressDoc{Done: j.done, Total: j.total},
	}
	if j.status == stateDone {
		doc.Artifact = "/v1/jobs/" + j.key + "/artifact"
	}
	return doc
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
