// Package runner provides a deterministic bounded worker pool for
// fanning independent jobs (experiments, ablations, seed sweeps)
// across CPUs.
//
// Determinism contract: results are returned in submission (index)
// order regardless of completion order, every job receives only its
// own inputs (the pool never shares state between jobs), and a pool of
// one worker executes jobs inline in the calling goroutine — so
// workers=1 is byte-for-byte the serial path.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// PanicError wraps a panic recovered from a job so the pool can report
// it as an ordinary error instead of crashing the process.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Workers clamps a requested worker count to [1, n jobs] with a
// sensible default: requested <= 0 means runtime.NumCPU().
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for i in [0, n) across at most workers
// goroutines and returns the results in index order. The first error
// (by job index, not completion time) is returned and cancels the
// context passed to jobs that have not started yet; jobs already
// running are allowed to finish. A panicking job is recovered and
// reported as a *PanicError. workers <= 1 runs every job inline in the
// calling goroutine, preserving exact serial semantics. Map is a
// collector over MapStream: it stores each result at its index.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, max(n, 0))
	err := MapStream(ctx, workers, n, fn, func(i int, v T) error {
		results[i] = v
		return nil
	})
	return results, err
}

// MapStream runs fn(ctx, i) for i in [0, n) across at most workers
// goroutines and hands each result to onResult as soon as its job
// completes — in completion order, not index order — instead of
// retaining all n results in memory. It is the package's only worker
// pool: streaming seed-sweep campaigns consume it directly, and Map
// collects over it. Memory stays bounded by the number of in-flight
// jobs, independent of n.
//
// onResult calls are serialized (never concurrent with each other),
// always run on the calling goroutine, and receive the job index so
// the consumer can reorder if it needs a deterministic fold. An error
// from onResult cancels jobs that have not started and is returned
// after in-flight jobs drain. A job error cancels the same way; the
// first error by job index wins, a panicking job is reported as a
// *PanicError, and onResult errors are reported only when no job
// failed. workers <= 1 runs jobs inline in index order, so the serial
// path is also the deterministic-delivery path.
func MapStream[T any](ctx context.Context, workers, n int,
	fn func(ctx context.Context, i int) (T, error),
	onResult func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)

	call := func(ctx context.Context, i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				err = &PanicError{Index: i, Value: r, Stack: buf}
			}
		}()
		return fn(ctx, i)
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := call(ctx, i)
			if err != nil {
				return err
			}
			if err := onResult(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type item struct {
		i   int
		v   T
		err error
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	indices := make(chan int)
	results := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				v, err := call(poolCtx, i)
				// Delivery is unconditional: the consumer loop below
				// drains until the channel closes, so this never leaks.
				results <- item{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-poolCtx.Done():
				close(indices)
				return
			}
		}
		close(indices)
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	errs := make([]error, n)
	var sinkErr error
	for it := range results {
		if it.err != nil {
			errs[it.i] = it.err
			cancel()
			continue
		}
		if sinkErr == nil {
			if err := onResult(it.i, it.v); err != nil {
				sinkErr = err
				cancel()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}
