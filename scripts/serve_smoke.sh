#!/usr/bin/env bash
# serve_smoke.sh — the coopmrmd drain/resume contract, end to end
# through real processes and real signals.
#
# Phase 1 runs a seed-sweep job to completion on a fresh server and
# keeps its artifact tar as the reference. Phase 2 submits the same
# job to a second fresh server, SIGTERMs the process mid-campaign
# (the server drains: the seed job parks at a final checkpoint),
# restarts it on the same state dir (the job resumes automatically),
# and fetches the finished artifact. The two tars must be
# byte-identical — interruption is invisible in the output. Also
# asserts the job's content address is stable across servers.
#
# Deterministic (no wall-clock assertions), so CI runs it blocking.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18355}"
BASE="http://127.0.0.1:$PORT"
WORK=.serve-smoke
BODY='{"experiment":"E1","options":{"quick":true},"seeds":"1..96"}'

rm -rf "$WORK"
mkdir -p "$WORK"
go build -o "$WORK/coopmrmd" ./cmd/coopmrmd

SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

start_server() { # $1 = state dir
    # -parallel 1 -checkpoint-every 1 stretches the 96-seed quick sweep
    # to ~2s with a checkpoint per fold, so the mid-job SIGTERM below
    # lands deterministically inside the campaign.
    "$WORK/coopmrmd" -listen "127.0.0.1:$PORT" -state "$1" \
        -parallel 1 -checkpoint-every 1 2>>"$WORK/server.log" &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/v1/metrics" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "serve-smoke: server did not come up" >&2
    exit 1
}

stop_server() {
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    SERVER_PID=""
}

submit() {
    curl -fsS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
        -d "$BODY" | jq -r .id
}

wait_done() { # $1 = job id
    for _ in $(seq 1 600); do
        st="$(curl -fsS "$BASE/v1/jobs/$1" | jq -r .status)"
        case "$st" in
        done) return 0 ;;
        failed)
            echo "serve-smoke: job failed" >&2
            curl -fsS "$BASE/v1/jobs/$1" >&2
            exit 1
            ;;
        esac
        sleep 0.1
    done
    echo "serve-smoke: timeout waiting for job" >&2
    exit 1
}

wait_progress() { # $1 = job id, $2 = minimum folded seeds
    for _ in $(seq 1 600); do
        p="$(curl -fsS "$BASE/v1/jobs/$1" | jq -r .progress.done)"
        [ "$p" -ge "$2" ] && return 0
        sleep 0.05
    done
    echo "serve-smoke: timeout waiting for progress >= $2" >&2
    exit 1
}

# Phase 1: the uninterrupted reference.
start_server "$WORK/stateA"
ID="$(submit)"
wait_done "$ID"
curl -fsS "$BASE/v1/jobs/$ID/artifact" -o "$WORK/uninterrupted.tar"
stop_server

# Phase 2: interrupt mid-campaign, restart, resume.
start_server "$WORK/stateB"
ID2="$(submit)"
if [ "$ID2" != "$ID" ]; then
    echo "serve-smoke: content address differs across servers: $ID2 vs $ID" >&2
    exit 1
fi
wait_progress "$ID2" 8
stop_server # SIGTERM mid-job: drain parks the campaign at a checkpoint

start_server "$WORK/stateB" # the interrupted job resumes on recovery
wait_done "$ID2"
curl -fsS "$BASE/v1/jobs/$ID2/artifact" -o "$WORK/resumed.tar"
stop_server

cmp "$WORK/uninterrupted.tar" "$WORK/resumed.tar"
echo "serve-smoke: resumed artifact byte-identical to uninterrupted run"
rm -rf "$WORK"
