package main

import (
	"archive/tar"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"coopmrm/internal/server"
)

const (
	// serveRepeated is the number of distinct jobs the cached ops draw
	// from; set-up runs each once to fill the cache.
	serveRepeated = 16
	// serveColdEvery: one op in each block of this many submits a job
	// no op has submitted before.
	serveColdEvery = 10
	// servePoll is the client's fixed status-poll interval.
	servePoll = 2 * time.Millisecond
)

// serve is a closed-loop client of an in-process coopmrmd over loopback:
// one connection, server Parallel 1 and MaxJobs 1. The op is one client
// cycle: submit a quick E1 job, poll its status until done, fetch its
// artifact tar.
type serve struct {
	in       runIn
	repeated [][]byte // request bodies set-up fills the cache with
	stream   [][]byte // one request body per op

	round  int
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	tars   map[string]string // job id -> digest of its first fetched tar
	digest hash.Hash         // every op's job ID and tar digest, in order
	err    error
	tarB   int64
	before serveMetrics // the cache counters when the round's ops start
	hits   int64        // cache lookups over the timed ops, from /v1/metrics
	misses int64
}

// openServe generates the request stream: in every block of serveColdEvery
// ops, one op at a seeded position asks for a new seed (a cold job); the
// others repeat a seeded choice among the set-up jobs (cache hits).
func openServe(in runIn) (instance, error) {
	rng := rand.New(rand.NewSource(in.seed))
	seeds := distinctSeeds(rng, serveRepeated+in.rounds*in.ops/serveColdEvery+1, nil)
	s := &serve{in: in, tars: make(map[string]string), digest: sha256.New()}
	for _, sd := range seeds[:serveRepeated] {
		s.repeated = append(s.repeated, e1Job(sd))
	}
	cold := seeds[serveRepeated:]
	coldAt := -1
	for i := 0; i < in.rounds*in.ops; i++ {
		if i%serveColdEvery == 0 {
			coldAt = i + rng.Intn(serveColdEvery)
		}
		if i == coldAt {
			s.stream = append(s.stream, e1Job(cold[0]))
			cold = cold[1:]
			continue
		}
		s.stream = append(s.stream, s.repeated[rng.Intn(serveRepeated)])
	}
	return s, nil
}

func e1Job(seed int64) []byte {
	return fmt.Appendf(nil, `{"experiment":"E1","options":{"quick":true,"seed":%d}}`, seed)
}

// discard stops the previous round's server and deletes its state.
func (s *serve) discard() error {
	return s.stop()
}

// setup starts a server on a fresh state directory and fills its cache
// with the repeated jobs. Their tars must equal the ones earlier rounds'
// servers produced. It ends by reading the cache counters, so the round's
// ops can be checked against them.
func (s *serve) setup(r int, tr *tracer) error {
	s.round = r
	dir := s.stateDir()
	srv, err := server.New(server.Config{StateDir: dir, Parallel: 1, MaxJobs: 1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	for _, body := range s.repeated {
		if _, err := s.cycle(tr, nil, body); err != nil {
			return err
		}
	}
	s.before, err = s.fetchMetrics()
	return err
}

// stop shuts the server down and waits for its serve loop and jobs.
func (s *serve) stop() error {
	if s.hs == nil {
		return nil
	}
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if !s.srv.WaitJobs(30 * time.Second) {
		err = errors.Join(err, errors.New("server jobs still running"))
	}
	s.hs, s.srv = nil, nil
	return errors.Join(err, os.RemoveAll(s.stateDir()))
}

func (s *serve) stateDir() string {
	return filepath.Join(s.in.dir, fmt.Sprintf("state-%d", s.round))
}

// run drives round r's share of the request stream.
func (s *serve) run(r int, tr *tracer, rec *recorder) {
	for _, body := range s.stream[r*s.in.ops : (r+1)*s.in.ops] {
		sum, err := s.cycle(tr, rec, body)
		s.fail(err)
		s.digest.Write([]byte(sum))
		rec.done(err == nil)
	}
	after, err := s.fetchMetrics()
	s.fail(err)
	s.hits += after.Cache.Hits - s.before.Cache.Hits
	s.misses += after.Cache.Misses - s.before.Cache.Misses
}

func (s *serve) fail(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

type jobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// cycle drives one job through submit, status polls and the artifact
// fetch, and returns "<job id> <tar digest>". A cached fetch must return
// the same bytes as the job's first fetch.
func (s *serve) cycle(tr *tracer, rec *recorder, body []byte) (string, error) {
	parent, op := int32(-1), int32(-1)
	if rec != nil {
		parent, op = rec.span, rec.op
	}
	var st jobStatus
	id := tr.begin(spanSubmit, parent, op)
	err := s.call(http.MethodPost, "/v1/jobs", body, &st)
	tr.end(id)
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	id = tr.begin(spanWait, parent, op)
	for st.Status != "done" && st.Status != "failed" {
		time.Sleep(servePoll)
		if err := s.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
			tr.end(id)
			return "", fmt.Errorf("status: %w", err)
		}
	}
	tr.end(id)
	if st.Status == "failed" {
		return "", fmt.Errorf("job %.12s failed: %s", st.ID, st.Error)
	}
	id = tr.begin(spanArtifact, parent, op)
	tarDigest, n, err := s.fetchTar(st.ID)
	tr.end(id)
	if err != nil {
		return "", fmt.Errorf("artifact %.12s: %w", st.ID, err)
	}
	if rec != nil {
		s.tarB += n
	}
	if first, ok := s.tars[st.ID]; !ok {
		s.tars[st.ID] = tarDigest
	} else if first != tarDigest {
		return "", fmt.Errorf("artifact %.12s: cached tar differs from its first fetch", st.ID)
	}
	return st.ID + " " + tarDigest + "\n", nil
}

// call sends one request and decodes a JSON reply; statuses >= 400 are
// errors.
func (s *serve) call(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// fetchTar reads a job's artifact tar to the end, checks it is a
// well-formed tar holding the bundle's table.json, and returns its digest
// and size.
func (s *serve) fetchTar(id string) (string, int64, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode >= 400 {
		return "", 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	table := false
	tr := tar.NewReader(bytes.NewReader(data))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, err
		}
		table = table || filepath.Base(hdr.Name) == "table.json"
	}
	if !table {
		return "", 0, errors.New("tar holds no table.json")
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), int64(len(data)), nil
}

// serveMetrics mirrors the /v1/metrics fields the benchmark reads.
type serveMetrics struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func (s *serve) fetchMetrics() (serveMetrics, error) {
	var m serveMetrics
	return m, s.call(http.MethodGet, "/v1/metrics", nil, &m)
}

func (s *serve) finish() (string, error) {
	if s.err != nil {
		return "", s.err
	}
	if want := int64(len(s.stream)); s.hits+s.misses != want {
		return "", fmt.Errorf("server counted %d lookups for %d submits", s.hits+s.misses, want)
	}
	return hex.EncodeToString(s.digest.Sum(nil)), nil
}

func (s *serve) counts() workCounts { return workCounts{} }

func (s *serve) layers(tr *tracer, m *metricSet) {
	n := float64(len(s.stream))
	m.set("server.submit_ms", "ms", ms(tr.stat(spanSubmit, true).total)/n)
	m.set("server.wait_ms", "ms", ms(tr.stat(spanWait, true).total)/n)
	m.set("server.artifact_ms", "ms", ms(tr.stat(spanArtifact, true).total)/n)
	m.set("server.cache_hit_ratio", "ratio", float64(s.hits)/float64(s.hits+s.misses))
	m.set("artifact.bundle_bytes", "B", float64(s.tarB)/n)
}

func (s *serve) close() error { return s.stop() }
