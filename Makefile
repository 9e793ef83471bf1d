GO ?= go

.PHONY: build test check race vet lint bench benchdiff microbench campaign-smoke serve-smoke servebench memprofile-campaign

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet. The gofmt gate lists every tracked Go
# file that gofmt would change and fails when there is any. CI installs
# staticcheck (honnef.co/go/tools/cmd/staticcheck); locally the target
# runs it when present and prints a notice otherwise, so a machine
# without the binary (or without network access to fetch it) still
# runs vet and the gofmt gate.
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go') </dev/null); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needs to be run on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The CI gate: build, vet, and the full test suite under the race
# detector (the parallel runner keeps the whole tree concurrency-clean).
check: build vet race

# bench regenerates the committed quick-suite baseline
# BENCH_quick.json (serial, seed 1 — the exact configuration the CI
# perf gate diffs against). Run it after an intentional perf-relevant
# change so the baseline tracks the trajectory.
bench:
	rm -rf .bench-out
	$(GO) run ./cmd/experiments -quick -parallel 1 -out .bench-out >/dev/null
	cp .bench-out/bench.json BENCH_quick.json
	rm -rf .bench-out
	@echo "BENCH_quick.json regenerated"

# benchdiff runs the quick suite fresh and diffs it against the
# committed baseline WITHOUT overwriting it — the perf-regression
# gate. Exit 1 when any experiment (or the total) is more than 50%
# slower than the baseline; CI runs this warn-only (wall clocks on
# shared runners are noisy), see cmd/benchdiff for the threshold
# semantics.
benchdiff:
	rm -rf .bench-out
	$(GO) run ./cmd/experiments -quick -parallel 1 -out .bench-out >/dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.5 BENCH_quick.json .bench-out/bench.json

# campaign-smoke is the end-to-end exercise of the seed campaign path:
# run a small E19 sweep uninterrupted on fresh rig construction,
# run the same campaign on the warm-rig pool (-reuse-rigs) aborted
# mid-flight (-abort-after, the deterministic stand-in for a kill),
# resume it — also warm — from the checkpoint, and require the resumed
# output to be byte-identical to the fresh uninterrupted run. One cmp
# therefore pins two contracts at once: checkpoint/resume loses no
# folded seed, and a campaign mixing warm and cold rigs produces the
# same bytes as an all-cold one. Exit 1 on any divergence; not a
# timing gate, so CI runs it blocking.
campaign-smoke:
	rm -rf .campaign-smoke && mkdir -p .campaign-smoke
	$(GO) run ./cmd/experiments -quick -run E19 -seeds 1..8 \
		>.campaign-smoke/uninterrupted.txt
	-$(GO) run ./cmd/experiments -quick -run E19 -seeds 1..8 -reuse-rigs \
		-checkpoint .campaign-smoke/campaign.json -checkpoint-every 2 \
		-abort-after 4 >/dev/null 2>&1
	test -s .campaign-smoke/campaign.json
	$(GO) run ./cmd/experiments -quick -run E19 -seeds 1..8 -reuse-rigs \
		-checkpoint .campaign-smoke/campaign.json -resume \
		>.campaign-smoke/resumed.txt
	cmp .campaign-smoke/uninterrupted.txt .campaign-smoke/resumed.txt
	rm -rf .campaign-smoke
	@echo "campaign-smoke: warm resumed output byte-identical to cold run"

# serve-smoke is the coopmrmd drain/resume contract through real
# processes and signals: run a sweep job to completion, run the same
# job on a fresh server, SIGTERM the process mid-campaign, restart it
# on the same state dir, and require the resumed artifact tar to be
# byte-identical to the uninterrupted one. Deterministic, so CI runs
# it blocking. Needs curl and jq.
serve-smoke:
	bash scripts/serve_smoke.sh

# servebench regenerates the committed coopmrmd throughput baseline
# BENCH_serve.json: sustained jobs/sec and runs/sec for 8 concurrent
# clients against a cold cache, then against a warm one. Wall-clock
# numbers — companion to BENCH_quick.json, not a CI gate.
servebench:
	$(GO) run ./cmd/coopmrmd -selfbench -bench-clients 8 -bench-jobs 32 \
		-bench-out BENCH_serve.json

# memprofile-campaign captures a heap profile of a warm-rig seed
# campaign: an E19 seed sweep served from the snapshot/reset rig pool,
# serial so the profile reflects one worker's steady state. Inspect
# with `go tool pprof campaign.memprofile`; the live heap should be
# dominated by the parked rig chassis, not per-seed garbage.
memprofile-campaign:
	$(GO) run ./cmd/experiments -quick -run E19 -seeds 1..32 -reuse-rigs \
		-parallel 1 -memprofile campaign.memprofile >/dev/null
	@echo "campaign.memprofile written (go tool pprof campaign.memprofile)"

# microbench runs the Go micro-benchmarks with allocation accounting:
# the per-artefact experiment benchmarks plus the hot-path pairs
# (network tick heap vs scan, proximity indexed vs brute, E16 full
# tick).
microbench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -bench=. -benchmem ./internal/runner ./internal/comm ./internal/sim
