package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamp(t *testing.T) {
	if Workers(4, 100) != 4 {
		t.Error("explicit count should be kept")
	}
	if Workers(8, 3) != 3 {
		t.Error("workers must not exceed job count")
	}
	if got := Workers(0, 100); got < 1 {
		t.Errorf("default workers = %d", got)
	}
	if Workers(-5, 0) < 1 {
		t.Error("workers must be at least 1")
	}
}

// Results must come back in index order no matter which worker
// finishes first.
func TestMapOrderedResults(t *testing.T) {
	const n = 64
	out, err := Map(context.Background(), 8, n, func(_ context.Context, i int) (string, error) {
		// Earlier indices sleep longer so completion order is roughly
		// reversed from submission order.
		time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
		return fmt.Sprintf("job-%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != fmt.Sprintf("job-%d", i) {
			t.Fatalf("out[%d] = %q", i, v)
		}
	}
}

// The pool must never run more than `workers` jobs at once.
func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	_, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		atomic.AddInt64(&inFlight, -1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Errorf("peak concurrency %d > %d workers", p, workers)
	}
}

// workers=1 must execute inline, strictly in order, on the calling
// goroutine — the serial path.
func TestMapSerialInline(t *testing.T) {
	var order []int
	var mu sync.Mutex // not needed serially; guards against regressions
	out, err := Map(context.Background(), 1, 10, func(_ context.Context, i int) (int, error) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("serial execution out of order: %v", order)
		}
	}
	if out[7] != 49 {
		t.Errorf("out[7] = %d", out[7])
	}
}

func TestMapPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 8, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want PanicError", workers, err)
		}
		if pe.Index != 5 || pe.Value != "boom" {
			t.Errorf("workers=%d: PanicError = %+v", workers, pe)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic stack missing")
		}
	}
}

// An error cancels the pool context so unstarted jobs are skipped.
func TestMapErrorCancelsRemaining(t *testing.T) {
	sentinel := errors.New("job failed")
	var started int64
	_, err := Map(context.Background(), 2, 100, func(ctx context.Context, i int) (int, error) {
		atomic.AddInt64(&started, 1)
		if i == 0 {
			return 0, sentinel
		}
		// Later jobs observe cancellation via ctx.
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s := atomic.LoadInt64(&started); s == 100 {
		t.Error("error should stop the pool from starting every job")
	}
}

func TestMapExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 2, 1000, func(_ context.Context, i int) (int, error) {
			if atomic.AddInt64(&started, 1) == 10 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if s := atomic.LoadInt64(&started); s == 1000 {
		t.Error("cancellation should stop the pool early")
	}
}

func TestMapZeroJobs(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Error("no job should run")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Errorf("out = %v, err = %v", out, err)
	}
}

// Identical inputs must produce identical ordered outputs across
// repeated parallel runs (the pool adds no nondeterminism of its own).
func TestMapDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		out, err := Map(context.Background(), 8, 40, func(_ context.Context, i int) (int, error) {
			return i*7 + 3, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// MapStream must deliver every result exactly once, with serialized
// callbacks, whatever the worker count.
func TestMapStreamDeliversAll(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		seen := make(map[int]int)
		err := MapStream(context.Background(), workers, 50,
			func(_ context.Context, i int) (int, error) { return i * i, nil },
			func(i, v int) error {
				// Serialized callbacks: plain map access races (and the
				// -race CI lane catches it) if the contract breaks.
				if v != i*i {
					t.Errorf("result %d = %d, want %d", i, v, i*i)
				}
				seen[i]++
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 50 {
			t.Fatalf("workers=%d: delivered %d of 50", workers, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("workers=%d: result %d delivered %d times", workers, i, n)
			}
		}
	}
}

// With one worker, delivery happens inline and in index order — the
// serial path doubles as the deterministic-delivery path.
func TestMapStreamSerialInOrder(t *testing.T) {
	var order []int
	err := MapStream(context.Background(), 1, 10,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i, _ int) error { order = append(order, i); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial delivery order = %v", order)
		}
	}
}

// A consumer error stops feeding new jobs and is returned after the
// in-flight jobs drain; no further onResult calls happen.
func TestMapStreamConsumerError(t *testing.T) {
	stop := errors.New("enough")
	for _, workers := range []int{1, 4} {
		delivered := 0
		started := int32(0)
		err := MapStream(context.Background(), workers, 1000,
			func(_ context.Context, i int) (int, error) {
				atomic.AddInt32(&started, 1)
				return i, nil
			},
			func(int, int) error {
				delivered++
				if delivered == 5 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, stop)
		}
		if delivered != 5 {
			t.Errorf("workers=%d: delivered %d after stop", workers, delivered)
		}
		if n := atomic.LoadInt32(&started); n == 1000 {
			t.Errorf("workers=%d: consumer error did not cancel the feed", workers)
		}
	}
}

// Job errors keep Map's contract: lowest job index wins, and a
// panicking job surfaces as *PanicError.
func TestMapStreamJobErrorAndPanic(t *testing.T) {
	boom := errors.New("boom")
	err := MapStream(context.Background(), 4, 100,
		func(_ context.Context, i int) (int, error) {
			if i == 7 || i == 42 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			return i, nil
		},
		func(int, int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "job 7") {
		t.Errorf("err = %v, want the lowest-index job error", err)
	}

	err = MapStream(context.Background(), 2, 10,
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		},
		func(int, int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Errorf("err = %v, want *PanicError for job 3", err)
	}
}

func TestMapStreamZeroJobs(t *testing.T) {
	if err := MapStream(context.Background(), 4, 0,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(int, int) error { t.Error("callback on zero jobs"); return nil }); err != nil {
		t.Fatal(err)
	}
}
