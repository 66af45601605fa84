#!/usr/bin/env bash
# Server smoke: boot `repro serve`, hit it with concurrent clients, scrape
# /metrics, force a 429 under saturation, verify a clean SIGTERM shutdown
# (exit 0, drained summary printed), and that after a `kill -9` the port is
# free at once and the forked pool workers die with the server.
#
# Run from the repo root: bash scripts/server_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

wait_pids() {
    local failed=0
    for pid in "$@"; do
        wait "$pid" || failed=1
    done
    return "$failed"
}

alive() { # alive <pid>: running, not a zombie
    local state
    state="$(ps -o stat= -p "$1" 2>/dev/null || true)"
    test -n "$state" && test "${state:0:1}" != Z
}

PORT=0
boot() { # boot <logfile> <extra serve flags...>; sets BASE and SERVER_PID
    local log="$1"; shift
    PYTHONPATH=src python -m repro serve --dataset wiki-Vote --port "$PORT" "$@" \
        >"$log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if grep -q "http://" "$log"; then break; fi
        sleep 0.2
    done
    BASE="$(grep -o "http://[0-9.:]*" "$log" | head -1)"
    test -n "$BASE" || { echo "server did not boot"; cat "$log"; exit 1; }
}

echo "=== 1. boot + concurrent clients + /metrics ==="
boot "$WORKDIR/serve.log" --max-concurrency 4 --queue-depth 16
echo "serving at $BASE"

curl -fsS "$BASE/healthz" | grep -q '"ok"'

# One serial request records the oracle count, and warms every cache.
ORACLE="$(curl -fsS -X POST "$BASE/count" -d '{"query": "3-cycle"}' \
    | python -c "import json,sys; print(json.load(sys.stdin)['count'])")"
echo "3-cycle count: $ORACLE"

# Eight concurrent clients must all succeed and agree with the oracle.
PIDS=()
for i in $(seq 1 8); do
    (
        got="$(curl -fsS -X POST "$BASE/count" -d '{"query": "3-cycle"}' \
            | python -c "import json,sys; print(json.load(sys.stdin)['count'])")"
        test "$got" = "$ORACLE" || { echo "client $i: $got != $ORACLE"; exit 1; }
    ) &
    PIDS+=($!)
done
wait_pids "${PIDS[@]}" || { echo "a concurrent client failed"; exit 1; }
echo "8 concurrent clients agree"

# Four concurrent parallel clients: the handler threads fork the worker pool
# while the others run, and every answer must still agree with the oracle.
PIDS=()
for i in $(seq 1 4); do
    (
        got="$(curl -fsS --max-time 60 -X POST "$BASE/count" \
                -d '{"query": "3-cycle", "parallel": 2}' \
            | python -c "import json,sys; print(json.load(sys.stdin)['count'])")"
        test "$got" = "$ORACLE" || { echo "parallel client $i: $got != $ORACLE"; exit 1; }
    ) &
    PIDS+=($!)
done
wait_pids "${PIDS[@]}" || { echo "a concurrent parallel client failed"; exit 1; }
echo "4 concurrent parallel clients agree"

# Sessions: prepare, then a warm request must report zero builds.
TOKEN="$(curl -fsS -X POST "$BASE/prepare" -d '{"query": "3-cycle"}' \
    | python -c "import json,sys; print(json.load(sys.stdin)['session'])")"
curl -fsS -X POST "$BASE/count" -H "X-Repro-Session: $TOKEN" \
        -d '{"query": "3-cycle"}' \
    | python -c "
import json, sys
body = json.load(sys.stdin)
meta = body['metadata']
for key in ('index_builds', 'plan_builds', 'compiled_builds'):
    assert meta[key] == 0, (key, meta)
print('warm session request: zero builds')
"

# A truncated /evaluate computes only the rows it returns, and still tells
# the exact count: the one /count answers.
COUNT="$(curl -fsS -X POST "$BASE/count" -d '{"query": "3-path"}' \
    | python -c "import json,sys; print(json.load(sys.stdin)['count'])")"
curl -fsS -X POST "$BASE/evaluate" \
        -d '{"query": "3-path", "algorithm": "lftj", "max_rows": 3}' \
    | python -c "
import json, sys
body = json.load(sys.stdin)
assert len(body['rows']) == 3, body['rows']
assert body['rows_truncated'] is True, body['rows_truncated']
assert body['count'] == $COUNT, (body['count'], $COUNT)
print('truncated /evaluate: 3 rows of', body['count'])
"

# /evaluate writes its rows from codes: they must be the library's rows.
# Codes, and with them the row order, are assigned by the first index build,
# so the library replays the server's first query before it evaluates.
for QUERY in 3-path lollipop; do
    curl -fsS -X POST "$BASE/evaluate" -d "{\"query\": \"$QUERY\", \"max_rows\": 1000}" \
        >"$WORKDIR/rows.json"
    python - "$QUERY" "$WORKDIR/rows.json" <<'PY'
import json, sys
from repro.cli import resolve_dataset, resolve_query
from repro.engine.engine import QueryEngine
query, path = sys.argv[1:]
with open(path) as body:
    served = json.load(body)["rows"]
engine = QueryEngine(resolve_dataset("wiki-Vote", 1.0))
engine.count(resolve_query("3-cycle"), algorithm="clftj")
rows = engine.evaluate(resolve_query(query), algorithm="clftj").rows[:1000]
assert len(served) == len(rows) == 1000, (len(served), len(rows))
assert served == [list(row) for row in rows], query
print(f"/evaluate {query}: 1000 rows equal to the library's")
PY
done

# /metrics must expose the reconciliation families and the request ledger.
curl -fsS "$BASE/metrics" >"$WORKDIR/metrics.txt"
grep -q "^repro_db_index_builds_total" "$WORKDIR/metrics.txt"
grep -q "^repro_query_index_builds_total" "$WORKDIR/metrics.txt"
grep -q 'repro_requests_total{endpoint="count",status="200"}' "$WORKDIR/metrics.txt"
grep -q "^repro_sessions_active 1" "$WORKDIR/metrics.txt"
echo "/metrics exposes db/query counter families and the request ledger"

echo "=== 2. clean SIGTERM shutdown ==="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
CODE=$?
test "$CODE" -eq 0 || { echo "expected exit 0, got $CODE"; exit 1; }
grep -q "shutdown: drained=True" "$WORKDIR/serve.log" \
    || { echo "no drain summary"; cat "$WORKDIR/serve.log"; exit 1; }
echo "SIGTERM: exit 0, drained"

echo "=== 3. forced saturation sheds with 429 ==="
boot "$WORKDIR/serve-tiny.log" --max-concurrency 1 --queue-depth 0

# One slot, no queue: under a concurrent burst of slow queries at least
# one client must be shed with a 429 + Retry-After.  An interpreted 5-cycle
# count takes ~0.25 s, so the burst overlaps it; a count of a few ms can
# finish before the next curl connects, and then nobody is shed.
PIDS=()
for i in $(seq 1 8); do
    curl -sS -o /dev/null -D "$WORKDIR/headers.$i" \
        -w "%{http_code}\n" -X POST "$BASE/count" \
        -d '{"query": "5-cycle", "compile": false}' >"$WORKDIR/status.$i" &
    PIDS+=($!)
done
wait_pids "${PIDS[@]}"
cat "$WORKDIR"/status.* | sort | uniq -c
grep -qx "429" "$WORKDIR"/status.* || { echo "expected at least one 429"; exit 1; }
grep -qx "200" "$WORKDIR"/status.* || { echo "expected at least one 200"; exit 1; }
grep -qi "Retry-After" "$WORKDIR"/headers.* || { echo "429 without Retry-After"; exit 1; }
echo "saturation shed with 429 + Retry-After"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "tiny server exited nonzero"; exit 1; }

echo "=== 4. kill -9 frees the port and ends the workers ==="
boot "$WORKDIR/serve-kill.log"
curl -fsS --max-time 60 -X POST "$BASE/count" \
    -d '{"query": "3-cycle", "parallel": 2}' >/dev/null
WORKERS="$(pgrep -P "$SERVER_PID" | xargs)"
echo "pool workers: ${WORKERS:-none}"
kill -KILL "$SERVER_PID"
wait "$SERVER_PID" || true

# Nobody may hold the listening socket: a connect is refused (curl exit 7),
# not queued for an accept that never comes (exit 28).
CODE=0
curl -sS -o /dev/null --max-time 4 "$BASE/healthz" 2>/dev/null || CODE=$?
test "$CODE" -eq 7 || { echo "expected a refused connect (curl 7), got $CODE"; exit 1; }

PORT="${BASE##*:}"
boot "$WORKDIR/serve-again.log"
curl -fsS "$BASE/healthz" | grep -q '"ok"'
echo "re-served on port $PORT"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "re-served server exited nonzero"; exit 1; }

for _ in $(seq 1 50); do
    LEFT=""
    for pid in $WORKERS; do
        if alive "$pid"; then LEFT="$LEFT $pid"; fi
    done
    test -z "$LEFT" && break
    sleep 0.1
done
test -z "$LEFT" || { echo "workers outlived the killed server:$LEFT"; exit 1; }
echo "kill -9: port refused then re-bound, workers gone"

echo "server smoke: OK"
