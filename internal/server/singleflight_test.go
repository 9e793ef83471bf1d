package server

import (
	"net/http"
	"sync"
	"testing"
)

// TestSingleFlightConcurrentSubmissions fires 100 identical
// submissions at an in-flight job and asserts exactly one underlying
// execution: the submissions all share the job's content address, so
// they coalesce onto it (or hit the cache if they straggle in after it
// completes) and every fetched bundle is byte-identical to the CLI
// -out bundle for the same sweep.
func TestSingleFlightConcurrentSubmissions(t *testing.T) {
	// foldHook parks the run after its first fold until released, so
	// all 100 submissions provably land while the job is in flight —
	// no timing assumptions.
	release := make(chan struct{})
	var park sync.Once
	cfg := Config{CheckpointEvery: 1000}
	cfg.foldHook = func(key string, done, total int) {
		park.Do(func() { <-release })
	}
	s := newTestServer(t, cfg)
	h := s.Handler()

	const body = `{"experiment":"E1","options":{"quick":true},"seeds":"1..6"}`
	const n = 100
	type verdict struct {
		doc  statusDoc
		code int
	}
	verdicts := make([]verdict, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc, code := postJob(t, h, body)
			verdicts[i] = verdict{doc, code}
		}(i)
	}
	wg.Wait()
	close(release)

	id := verdicts[0].doc.ID
	var queued, coalesced int
	for _, v := range verdicts {
		if v.doc.ID != id {
			t.Fatalf("submission got id %.12s, want %.12s for all", v.doc.ID, id)
		}
		if v.code != http.StatusAccepted {
			t.Fatalf("submission: HTTP %d, want 202", v.code)
		}
		if v.doc.Coalesced {
			coalesced++
		} else {
			queued++
		}
	}
	if queued != 1 || coalesced != n-1 {
		t.Errorf("queued=%d coalesced=%d, want 1/%d", queued, coalesced, n-1)
	}

	waitState(t, h, id, stateDone)
	if got := s.executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1 for %d identical submissions", got, n)
	}
	if s.misses.Load() != 1 || s.coalesced.Load() != int64(n-1) {
		t.Errorf("misses=%d coalesced=%d, want 1/%d", s.misses.Load(), s.coalesced.Load(), n-1)
	}

	// Every fetch serves the same bytes, and those bytes match the
	// library path the CLI -out flag uses for a seed sweep.
	served := fetchTar(t, h, id)
	compareBundles(t, fetchTar(t, h, id), served)
	compareBundles(t, served, sweepBundle(t, "E1", []int64{1, 2, 3, 4, 5, 6}))
}
