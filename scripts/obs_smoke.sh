#!/usr/bin/env bash
# Observability smoke: boots a real pdbd binary (durable, slow-query
# threshold armed, debug listener on), drives every endpoint, then asserts
# the three observability surfaces end to end:
#   - /metrics parses as Prometheus text and the key series are nonzero
#     (request latency histograms, WAL fsync histogram, commit counters,
#     plan-cache events),
#   - a /batch after an /update is answered on the live view: the view
#     prepare count does not grow and no frozen snapshot-cache series exists,
#   - the slow-query log emitted structured records with stage breakdowns,
#   - net/http/pprof and the /metrics mirror answer on the debug address.
#
# Usage: scripts/obs_smoke.sh [port] [debug_port]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18080}"
dbg_port="${2:-16060}"
addr="127.0.0.1:$port"
dbg="127.0.0.1:$dbg_port"

workdir="$(mktemp -d)"
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$workdir"' EXIT

go build -o "$workdir/pdbd" ./cmd/pdbd

cat > "$workdir/inst.pdb" <<'EOF'
fact 0.9 R a
fact 0.5 S a b
fact 0.8 T b
EOF

"$workdir/pdbd" -i "$workdir/inst.pdb" -data-dir "$workdir/data" \
    -addr "$addr" -debug-addr "$dbg" -slow-query 1ns -log-format json \
    2> "$workdir/pdbd.log" &
pid=$!

up=0
for _ in $(seq 1 100); do
    if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.1
done
if [ "$up" != 1 ]; then
    echo "FAIL: pdbd did not come up on $addr" >&2
    cat "$workdir/pdbd.log" >&2
    exit 1
fi

post() { curl -sf -X POST "http://$addr/$1" -d "$2" >/dev/null; }
# sample prints the value of one series from a fresh /metrics scrape.
sample() { curl -sf "http://$addr/metrics" | awk -v s="$1" '$1 == s { print $2 }'; }
post query  '{"query":"R(?x) & S(?x,?y) & T(?y)"}'
post query  '{"query":"R(?x) & S(?x,?y) & T(?y)"}'
post query  '{"query":"R(?x) & S(?x,?y) & T(?y)","assignment":{"0":0.5}}'
post batch  '{"query":"R(?x) & S(?x,?y) & T(?y)","assignments":[{"0":0.1},{"0":0.9}]}'
post update '{"updates":[{"op":"set","id":0,"p":0.55}]}'

# A /batch after a commit answers on the live view: it prepares nothing.
view_prepares="$(sample 'pdbd_prepare_seconds_count{kind="view"}')"
post update '{"updates":[{"op":"set","id":1,"p":0.45}]}'
post batch  '{"query":"R(?x) & S(?x,?y) & T(?y)","assignments":[{"2":0.3},{}]}'
after="$(sample 'pdbd_prepare_seconds_count{kind="view"}')"
if [ -z "$view_prepares" ] || [ "$after" != "$view_prepares" ]; then
    echo "FAIL: view prepares went '${view_prepares:-<absent>}' -> '${after:-<absent>}' across /update + /batch" >&2
    exit 1
fi

metrics="$workdir/metrics.txt"
curl -sf "http://$addr/metrics" > "$metrics"

# Every non-comment line must be "<series> <value>".
if ! awk '!/^#/ && NF { if (NF != 2) { print "bad sample line: " $0; exit 1 } }' "$metrics"; then
    exit 1
fi

fail=0
for series in \
    'pdbd_http_request_seconds_count{endpoint="query"}' \
    'pdbd_http_request_seconds_count{endpoint="batch"}' \
    'pdbd_http_request_seconds_count{endpoint="update"}' \
    'wal_fsync_seconds_count' \
    'wal_flush_records_count' \
    'incr_commits_total' \
    'incr_commit_seconds_count' \
    'pdbd_plan_cache_events_total{event="hit"}' \
    'pdbd_eval_seconds_count' \
    'pdbd_store_facts'
do
    val="$(awk -v s="$series" '$1 == s { print $2 }' "$metrics")"
    if [ -z "$val" ] || [ "$val" = "0" ]; then
        echo "FAIL: series $series missing or zero (got '${val:-<absent>}')" >&2
        fail=1
    fi
done
if grep -q '^pdbd_frozen_cache_events_total' "$metrics"; then
    echo "FAIL: pdbd_frozen_cache_events_total is still exposed" >&2
    fail=1
fi
[ "$fail" = 0 ]

# The 1ns threshold makes every request slow: the structured log must carry
# slow-request records with stage breakdowns.
grep -q '"msg":"slow request"' "$workdir/pdbd.log" || {
    echo "FAIL: no slow-request records in the log" >&2
    cat "$workdir/pdbd.log" >&2
    exit 1
}
grep -q '"stages":"parse=' "$workdir/pdbd.log" || {
    echo "FAIL: slow-request records carry no stage breakdown" >&2
    exit 1
}

# The debug listener: pprof answers, and the /metrics mirror scrapes.
curl -sf "http://$dbg/debug/pprof/cmdline" >/dev/null
curl -sf "http://$dbg/metrics" > "$workdir/metrics_dbg.txt"
grep -q '^pdbd_http_requests_total' "$workdir/metrics_dbg.txt"

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "obs smoke OK"
