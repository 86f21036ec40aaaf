#!/bin/sh
# metrics_smoke.sh — boot a real charles-server, run one advise
# through the async API, and verify the observability surface end to
# end: /healthz and /metrics answer 200, the scrape parses as
# non-empty Prometheus text, and the families every layer registers
# (engine, seg, jobs, server) are present with the advise visible in
# charles_advises_total and in the evaluator's full and narrow
# evaluation totals, and after advises on novel contexts the
# evaluator's caches hold no more bytes (charles_seg_cache_bytes) than
# the budget the server logs at boot, and have evicted to stay so.
# The in-process grammar test covers the
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

# Novel contexts through the sync page, each its own tonnage range:
# together they pin more selections than the evaluator's byte budget,
# so its clock must evict.
lo=50
while [ "$lo" -le 740 ]; do
    curl -fsS -G --data-urlencode "context=(tonnage: [$lo, $((lo + 400))], type_of_boat:, departure_harbour:)" "$BASE/" >/dev/null || {
        echo "metrics-smoke: advise on tonnage [$lo, $((lo + 400))] failed" >&2
        exit 1
    }
    lo=$((lo + 30))
done

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
    charles_seg_cache_bytes \
    charles_seg_cache_evictions_total \
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

# The evaluator's readers see the live evaluator: the advises above
# evaluated contexts in full and cut children from their parents.
for fam in charles_seg_full_evals_total charles_seg_narrow_evals_total; do
    N=$(printf '%s\n' "$METRICS" | sed -n "s/^$fam \([0-9]*\)\$/\1/p")
    if [ -z "$N" ] || [ "$N" -lt 1 ]; then
        echo "metrics-smoke: $fam = '$N' after advises" >&2
        exit 1
    fi
done

# The shared evaluator's stores stay within the byte budget the server
# set at boot from the table's rows, evicting to do so.
BUDGET=$(sed -n 's/.*evaluator cache budget \([0-9]*\) bytes.*/\1/p' "$LOG")
CACHED=$(printf '%s\n' "$METRICS" | sed -n 's/^charles_seg_cache_bytes \([0-9]*\)$/\1/p')
if [ -z "$BUDGET" ] || [ -z "$CACHED" ] || [ "$CACHED" -gt "$BUDGET" ]; then
    echo "metrics-smoke: charles_seg_cache_bytes = '$CACHED', budget '$BUDGET'" >&2
    exit 1
fi
EVICTED=$(printf '%s\n' "$METRICS" | sed -n 's/^charles_seg_cache_evictions_total \([0-9]*\)$/\1/p')
if [ -z "$EVICTED" ] || [ "$EVICTED" -lt 1 ]; then
    echo "metrics-smoke: charles_seg_cache_evictions_total = '$EVICTED' after advises past the budget" >&2
    exit 1
fi

# The real listener goes through the access-log middleware, so the
# HTTP families must have moved too.
REQS=$(printf '%s\n' "$METRICS" | sed -n 's/^charles_http_requests_total \([0-9]*\)$/\1/p')
if [ -z "$REQS" ] || [ "$REQS" -lt 1 ]; then
    echo "metrics-smoke: charles_http_requests_total = '$REQS'" >&2
    exit 1
fi

echo "metrics-smoke: OK ($ADVISES advise(s), $REQS request(s) observed, $CACHED of $BUDGET cache bytes, $EVICTED eviction(s))"
