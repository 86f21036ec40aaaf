#!/bin/sh
# metrics_smoke.sh — boot a real charles-server, run one advise
# through the async API, and verify the observability surface end to
# end: /healthz and /metrics answer 200, the scrape parses as
# non-empty Prometheus text, and the families every layer registers
# (engine, seg, jobs, server) are present with the advise visible in
# charles_advises_total. The in-process grammar test covers the
# format; this covers the wiring a unit test can't — flags, listener,
# middleware, a real HTTP round trip.
set -eu

ADDR="${METRICS_SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
LOG="$(mktemp)"
BIN="$(mktemp)"

go build -o "$BIN" ./cmd/charles-server

"$BIN" -rows 5000 -addr "$ADDR" >"$LOG" 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null; rm -f "$BIN"; rm -f "$LOG"' EXIT INT TERM

# Wait for the listener (the server warms summaries before serving).
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "metrics-smoke: server never came up; log follows" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done

# One advise through the job queue, polled to a terminal state.
JOB=$(curl -fsS -X POST -d "context=(tonnage:)" "$BASE/advise")
ID=$(printf '%s' "$JOB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -n "$ID" ]; then
    i=0
    while :; do
        STATE=$(curl -fsS "$BASE/jobs/$ID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
        case "$STATE" in
        done) break ;;
        failed | cancelled | timed_out)
            echo "metrics-smoke: advise job ended $STATE" >&2
            exit 1
            ;;
        esac
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "metrics-smoke: advise job never finished" >&2
            exit 1
        fi
        sleep 0.2
    done
fi

HEALTH=$(curl -fsS "$BASE/healthz")
printf '%s' "$HEALTH" | grep -q '"status":"ok"' || {
    echo "metrics-smoke: bad /healthz payload: $HEALTH" >&2
    exit 1
}

METRICS=$(curl -fsS "$BASE/metrics")
if [ -z "$METRICS" ]; then
    echo "metrics-smoke: empty /metrics body" >&2
    exit 1
fi

for fam in \
    charles_engine_zone_skip_total \
    charles_seg_full_evals_total \
    charles_seg_pair_table_hits_total \
    charles_seg_row_materializations_total \
    charles_delta_refreshes_total \
    charles_jobs_run_seconds \
    charles_http_requests_total \
    charles_advises_total \
    charles_result_cache_hits_total \
    charles_panics_recovered_total \
    charles_http_over_quota_total \
    charles_http_queue_full_total \
    charles_http_body_too_large_total; do
    printf '%s\n' "$METRICS" | grep -q "^# TYPE $fam " || {
        echo "metrics-smoke: family $fam missing from /metrics" >&2
        exit 1
    }
done

ADVISES=$(printf '%s\n' "$METRICS" | sed -n 's/^charles_advises_total \([0-9]*\)$/\1/p')
if [ -z "$ADVISES" ] || [ "$ADVISES" -lt 1 ]; then
    echo "metrics-smoke: charles_advises_total = '$ADVISES' after an advise" >&2
    exit 1
fi

# The real listener goes through the access-log middleware, so the
# HTTP families must have moved too.
REQS=$(printf '%s\n' "$METRICS" | sed -n 's/^charles_http_requests_total \([0-9]*\)$/\1/p')
if [ -z "$REQS" ] || [ "$REQS" -lt 1 ]; then
    echo "metrics-smoke: charles_http_requests_total = '$REQS'" >&2
    exit 1
fi

echo "metrics-smoke: OK ($ADVISES advise(s), $REQS request(s) observed)"
