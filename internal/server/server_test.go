package server

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coopmrm"
	"coopmrm/internal/artifact"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJob submits a raw JSON body and decodes the status response.
func postJob(t *testing.T, h http.Handler, body string) (statusDoc, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	var doc statusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("submit response %q: %v", rec.Body.String(), err)
	}
	return doc, rec.Code
}

// waitState polls the job over HTTP until it reaches a terminal state.
func waitState(t *testing.T, h http.Handler, id string, want jobState) statusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		var doc statusDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("status response %q: %v", rec.Body.String(), err)
		}
		if jobState(doc.Status) == want {
			return doc
		}
		if doc.Status == string(stateFailed) && want != stateFailed {
			t.Fatalf("job %.12s failed: %s", id, doc.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %.12s stuck in %q waiting for %q", id, doc.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchTar downloads the artifact tar and explodes it to name→bytes.
func fetchTar(t *testing.T, h http.Handler, id string) map[string][]byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/artifact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("artifact fetch: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	files := make(map[string][]byte)
	tr := tar.NewReader(bytes.NewReader(rec.Body.Bytes()))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		files[hdr.Name] = data
	}
	return files
}

// readBundleDir loads every file of an on-disk bundle keyed the way the
// served tar names them ("<EID>/<relpath>").
func readBundleDir(t *testing.T, dir, eid string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	root := filepath.Join(dir, eid)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		data, err := os.ReadFile(path)
		files[eid+"/"+filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func compareBundles(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: served bytes differ from reference (%d vs %d bytes)",
				name, len(got[name]), len(data))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: served but not in reference bundle", name)
		}
	}
}

// TestServerBundleParityWithCLIPath is the acceptance check: a bundle
// fetched from the server is byte-identical to what cmd/experiments
// -out writes for the same experiment and options.
func TestServerBundleParityWithCLIPath(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	doc, code := postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	waitState(t, h, doc.ID, stateDone)
	served := fetchTar(t, h, doc.ID)

	// The CLI -out path for a single run: RunSetWithArtifacts into
	// WriteRunArtifacts, exactly what cmd/experiments does.
	e, _ := coopmrm.ExperimentByID("E1")
	res, err := coopmrm.RunSetWithArtifacts([]coopmrm.Experiment{e}, coopmrm.Options{Quick: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	bench := artifact.NewBench(0, 1, 1, true)
	if err := coopmrm.WriteRunArtifacts(refDir, res, bench); err != nil {
		t.Fatal(err)
	}
	compareBundles(t, served, readBundleDir(t, refDir, "E1"))

	// Refetching a cached result yields the identical stream.
	again := fetchTar(t, h, doc.ID)
	compareBundles(t, again, served)
}

func TestServerCachedAndCoalescedVerdicts(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	doc, _ := postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`)
	waitState(t, h, doc.ID, stateDone)

	doc2, code := postJob(t, h, `{"options":{"quick":true},"experiment":"E1","timeout_seconds":9}`)
	if code != http.StatusOK || !doc2.Cached || doc2.ID != doc.ID {
		t.Fatalf("resubmission: code=%d cached=%v id=%.12s, want 200/true/%.12s",
			code, doc2.Cached, doc2.ID, doc.ID)
	}
	if got := s.executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// TestServerDrainInterruptResume exercises the SIGTERM story end to
// end: a draining server parks the seed campaign at a final checkpoint
// with zero folded seeds lost, and a fresh server over the same state
// dir resumes it to a tar byte-identical to the bundle the CLI -out
// path writes for an uninterrupted campaign — captured runs included.
func TestServerDrainInterruptResume(t *testing.T) {
	state := t.TempDir()
	cfg := Config{StateDir: state, CheckpointEvery: 4}
	drained := make(chan struct{})
	s1 := newTestServer(t, cfg)
	s1.cfg.foldHook = func(key string, done, total int) {
		if done == 6 {
			s1.BeginDrain()
			close(drained)
		}
	}
	h1 := s1.Handler()
	doc, _ := postJob(t, h1, `{"experiment":"E1","options":{"quick":true},"seeds":"1..12"}`)
	<-drained
	waitState(t, h1, doc.ID, stateInterrupted)
	if !s1.WaitJobs(10 * time.Second) {
		t.Fatal("drain did not settle")
	}

	// The drain must have checkpointed the abort point (6 folds), not
	// just the last periodic write (4) — no folded seed is re-run.
	ckpt, err := os.ReadFile(filepath.Join(s1.jobDir(doc.ID), "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(ckpt, []byte(`"completed": 6`)) {
		t.Errorf("checkpoint does not record 6 completed folds:\n%s", ckpt)
	}

	s2 := newTestServer(t, Config{StateDir: state, CheckpointEvery: 4})
	h2 := s2.Handler()
	waitState(t, h2, doc.ID, stateDone)
	served := fetchTar(t, h2, doc.ID)
	if s2.executions.Load() != 1 {
		t.Fatalf("resume executions = %d, want 1", s2.executions.Load())
	}

	// Reference: the same job run uninterrupted through the library.
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ref := sweepBundle(t, "E1", seeds)
	compareBundles(t, served, ref)
	if len(ref["E1/runs.json"]) < 1000 {
		t.Errorf("reference bundle carries no runs:\n%s", ref["E1/runs.json"])
	}
}

// sweepBundle is what cmd/experiments -out writes for a quick seed
// sweep: SweepSeedsStreamWithArtifacts into WriteRunArtifacts.
func sweepBundle(t *testing.T, eid string, seeds []int64) map[string][]byte {
	t.Helper()
	e, _ := coopmrm.ExperimentByID(eid)
	res, err := coopmrm.SweepSeedsStreamWithArtifacts(e, coopmrm.Options{Quick: true, Seed: 1},
		seeds, 0, coopmrm.CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	bench := artifact.NewBench(0, 1, len(seeds), true)
	if err := coopmrm.WriteRunArtifacts(refDir, []coopmrm.ExperimentArtifacts{res}, bench); err != nil {
		t.Fatal(err)
	}
	return readBundleDir(t, refDir, eid)
}

func TestServerJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{JobTimeout: time.Nanosecond})
	h := s.Handler()
	doc, _ := postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`)
	st := waitState(t, h, doc.ID, stateFailed)
	if !strings.Contains(st.Error, "timeout") {
		t.Errorf("failure reason %q does not mention the timeout", st.Error)
	}
}

func TestServerEviction(t *testing.T) {
	// A 1-byte budget means every completed result immediately exceeds
	// the cache bound and is evicted least-recently-fetched.
	s := newTestServer(t, Config{CacheMaxBytes: 1})
	h := s.Handler()
	doc, _ := postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`)
	deadline := time.Now().Add(30 * time.Second)
	for s.lookup(doc.ID) != nil {
		if time.Now().After(deadline) {
			t.Fatal("completed job never evicted under a 1-byte budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.evictions.Load() == 0 {
		t.Error("eviction counter not incremented")
	}
	if _, err := os.Stat(s.jobDir(doc.ID)); !os.IsNotExist(err) {
		t.Error("evicted job's state dir still on disk")
	}
}

func TestServerRecoverServesCachedResult(t *testing.T) {
	state := t.TempDir()
	s1 := newTestServer(t, Config{StateDir: state})
	doc, _ := postJob(t, s1.Handler(), `{"experiment":"E1","options":{"quick":true}}`)
	waitState(t, s1.Handler(), doc.ID, stateDone)
	served := fetchTar(t, s1.Handler(), doc.ID)

	s2 := newTestServer(t, Config{StateDir: state})
	doc2, code := postJob(t, s2.Handler(), `{"experiment":"E1","options":{"quick":true}}`)
	if code != http.StatusOK || !doc2.Cached {
		t.Fatalf("restarted server: code=%d cached=%v, want 200/true", code, doc2.Cached)
	}
	if s2.executions.Load() != 0 {
		t.Fatalf("restarted server re-ran a cached job (%d executions)", s2.executions.Load())
	}
	compareBundles(t, fetchTar(t, s2.Handler(), doc.ID), served)
}

// A done job in a state dir written before the job identity lost a
// field (here: "stream") is still recovered and served under the key
// it was stored under, even though a resubmission now keys elsewhere.
func TestServerRecoversLegacyJobUnderStoredKey(t *testing.T) {
	state := t.TempDir()
	s1 := newTestServer(t, Config{StateDir: state})
	doc, _ := postJob(t, s1.Handler(), `{"experiment":"E1","options":{"quick":true}}`)
	waitState(t, s1.Handler(), doc.ID, stateDone)
	served := fetchTar(t, s1.Handler(), doc.ID)

	// Re-file the job the way an older server stored it: under another
	// key, with the retired field in its canonical form.
	legacy := strings.Repeat("ab", 32)
	if err := os.Rename(s1.jobDir(doc.ID), s1.jobDir(legacy)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s1.jobDir(legacy), "job.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"key": "`+doc.ID+`"`), []byte(`"key": "`+legacy+`"`), 1)
	data = bytes.Replace(data, []byte(`"quick": true`), []byte(`"quick": true,`+"\n"+`    "stream": false`), 1)
	if !bytes.Contains(data, []byte(legacy)) || !bytes.Contains(data, []byte(`"stream"`)) {
		t.Fatalf("job.json not in the expected shape:\n%s", data)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{StateDir: state})
	st := waitState(t, s2.Handler(), legacy, stateDone)
	if st.Artifact == "" {
		t.Fatal("recovered legacy job has no artifact link")
	}
	compareBundles(t, fetchTar(t, s2.Handler(), legacy), served)
	if s2.executions.Load() != 0 {
		t.Errorf("recovering a done job ran it again (%d executions)", s2.executions.Load())
	}
}

func TestServerHTTPErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `{"experiment":"E999"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"experiment":"E1","bogus":1}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"experiment":"E1","seeds":"0..9223372036854775807"}`, http.StatusBadRequest},
		// The retired shards option and stream switch are unknown
		// fields now.
		{"POST", "/v1/jobs", `{"experiment":"E1","options":{"shards":4}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"experiment":"E1","seeds":"1..4","stream":true}`, http.StatusBadRequest},
		{"GET", "/v1/jobs/deadbeef", "", http.StatusNotFound},
		{"GET", "/v1/jobs/deadbeef/artifact", "", http.StatusNotFound},
		{"GET", "/v1/jobs/deadbeef/bench", "", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
		if rec.Code != tc.want {
			t.Errorf("%s %s: HTTP %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}

	s.BeginDrain()
	if _, code := postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}
}

func TestServerMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	doc, _ := postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`)
	waitState(t, h, doc.ID, stateDone)
	postJob(t, h, `{"experiment":"E1","options":{"quick":true}}`) // cache hit

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	var m metricsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != SchemaMetrics {
		t.Errorf("schema = %q, want %q", m.Schema, SchemaMetrics)
	}
	if m.Jobs.Done != 1 || m.Cache.Entries != 1 || m.Cache.Bytes <= 0 {
		t.Errorf("done=%d entries=%d bytes=%d, want 1/1/>0",
			m.Jobs.Done, m.Cache.Entries, m.Cache.Bytes)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.HitRatio != 0.5 {
		t.Errorf("hits=%d misses=%d ratio=%v, want 1/1/0.5",
			m.Cache.Hits, m.Cache.Misses, m.Cache.HitRatio)
	}
	if m.Throughput.RunsCompleted != 1 {
		t.Errorf("runs_completed = %d, want 1", m.Throughput.RunsCompleted)
	}
}
