// Command coopmrmd serves the experiment harness as a long-running
// HTTP job service with a content-addressed result cache.
//
// Usage:
//
//	coopmrmd [-listen 127.0.0.1:8355] [-state DIR]
//	         [-cache-max-bytes N] [-max-jobs N] [-parallel N]
//	         [-job-timeout D] [-checkpoint-every N] [-drain-timeout D]
//	coopmrmd -selfbench [-bench-clients N] [-bench-jobs N] [-bench-out FILE]
//
// API (see EXPERIMENTS.md for schemas):
//
//	POST /v1/jobs               submit a job; the response ID is the
//	                            content address of the request, so
//	                            identical submissions share one run
//	GET  /v1/jobs/{id}          status + progress
//	GET  /v1/jobs/{id}/artifact completed bundle as a deterministic tar
//	GET  /v1/jobs/{id}/bench    the job's wall-clock bench.json
//	GET  /v1/metrics            job counts, cache hit ratio, runs/sec
//	GET  /v1/experiments        the runnable experiment index
//
// On SIGTERM/SIGINT the server drains: it stops accepting submissions,
// seed campaigns park at a final checkpoint (no folded seed is
// lost), and the next start on the same -state resumes them to results
// byte-identical to an uninterrupted run.
//
// -selfbench skips serving and measures sustained job throughput
// in-process: N concurrent clients submit distinct jobs against a cold
// cache, then resubmit them warm; both phases land in bench/v1 "serve"
// entries (see BENCH_serve.json).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coopmrm/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coopmrmd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coopmrmd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8355", "address to serve the HTTP API on")
	state := fs.String("state", ".coopmrmd", "state directory (job specs, checkpoints, cached results)")
	cacheMax := fs.Int64("cache-max-bytes", 1<<30, "result cache size bound; least-recently-fetched results are evicted past it")
	maxJobs := fs.Int("max-jobs", 2, "maximum concurrently running jobs")
	parallel := fs.Int("parallel", 0, "worker pool size per job (0: one per CPU)")
	jobTimeout := fs.Duration("job-timeout", 15*time.Minute, "per-job run time bound (requests may shorten, never extend)")
	ckEvery := fs.Int("checkpoint-every", 16, "folded seeds between campaign checkpoints for seed-sweep jobs")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long to wait for in-flight jobs to park on shutdown")
	selfbench := fs.Bool("selfbench", false, "measure sustained job throughput instead of serving")
	benchClients := fs.Int("bench-clients", 8, "selfbench: concurrent clients")
	benchJobs := fs.Int("bench-jobs", 32, "selfbench: distinct jobs per phase")
	benchOut := fs.String("bench-out", "BENCH_serve.json", "selfbench: bench/v1 output file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		StateDir:        *state,
		CacheMaxBytes:   *cacheMax,
		MaxJobs:         *maxJobs,
		Parallel:        *parallel,
		JobTimeout:      *jobTimeout,
		CheckpointEvery: *ckEvery,
	}
	if *selfbench {
		return selfBench(cfg, *benchClients, *benchJobs, *benchOut)
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("coopmrmd: serving on http://%s (state %s)", *listen, *state)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("coopmrmd: %s: draining", sig)
	}

	// Drain order matters: refuse new work first, then stop the
	// listener, then wait for in-flight jobs to park at a checkpoint.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("coopmrmd: shutdown: %v", err)
	}
	if !srv.WaitJobs(*drainTimeout) {
		return fmt.Errorf("drain timed out after %s; unfinished jobs re-run from their last checkpoint on restart", *drainTimeout)
	}
	log.Printf("coopmrmd: drained; interrupted jobs resume on next start")
	return nil
}
