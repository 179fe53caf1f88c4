#!/usr/bin/env bash
# Smoke test for the tuned daemon: boot it on an ephemeral port, submit a
# job, stream its trace, cancel a long-running MCTS job and a running nodba
# job and check the refund invariant (used + refunded == budget) for each,
# SIGTERM-drain with a cache snapshot save, then reboot from the snapshot
# and require the warmed oracle to answer an identical job at a strictly
# higher cache hit rate (GET /stats). Run via `make tuned-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
go build -o /tmp/tuned-smoke-bin ./cmd/tuned

log=$(mktemp)
snapdir=$(mktemp -d)
/tmp/tuned-smoke-bin -addr 127.0.0.1:0 -max-jobs 2 -cache-snapshot-dir "$snapdir" >"$log" 2>&1 &
pid=$!
trap 'kill -9 $pid 2>/dev/null || true; rm -rf "$log" "$snapdir" /tmp/tuned-smoke-bin' EXIT

# The daemon prints "listening on http://127.0.0.1:PORT".
for i in $(seq 1 50); do
    base=$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$log" | head -1)
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "tuned did not start"; cat "$log"; exit 1; }

echo "== healthz"
curl -sf "$base/healthz" | grep -q '"ok"'

echo "== submit + stream to completion"
id=$(curl -sf -X POST "$base/jobs" -d '{"workload":"tpch","budget":80,"k":4}' |
    python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')
curl -sfN "$base/jobs/$id/trace" > /tmp/tuned-smoke-trace.jsonl
tail -1 /tmp/tuned-smoke-trace.jsonl | python3 -c '
import sys, json
rec = json.loads(sys.stdin.read())
assert rec["kind"] == "job-summary", rec
job = rec["job"]
assert job["state"] == "done", job
assert job["result"]["whatif_calls"] <= 80, job
print("  done: %.1f%% improvement in %d calls" % (job["result"]["improvement_pct"], job["result"]["whatif_calls"]))
'

echo "== cold-boot cache stats"
cold_rate=$(curl -sf "$base/stats" | python3 -c '
import sys, json
st = json.load(sys.stdin)
assert st["jobs"]["done"] == 1, st["jobs"]
oracles = {o["workload"]: o for o in st["oracles"]}
o = oracles["TPC-H"]
assert o["jobs"] == 1 and o["cache"]["entries"] > 0, o
assert st.get("snapshots") in (None, []), st
print("%.6f" % o["hit_rate"])
')
echo "  cold hit rate: $cold_rate"

echo "== submit long job, cancel mid-run, check the refund invariant"
id=$(curl -sf -X POST "$base/jobs" -d '{"workload":"tpch","budget":500000,"k":8,"seed":2}' |
    python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')
# Wait for the first trace bytes so the cancel genuinely lands mid-run.
curl -sN "$base/jobs/$id/trace" | head -c 200 >/dev/null || true
curl -sf -X DELETE "$base/jobs/$id" >/dev/null
for i in $(seq 1 100); do
    state=$(curl -sf "$base/jobs/$id" | python3 -c 'import sys,json; print(json.load(sys.stdin)["state"])')
    [ "$state" != "running" ] && [ "$state" != "queued" ] && break
    sleep 0.1
done
curl -sf "$base/jobs/$id" | python3 -c '
import sys, json
job = json.load(sys.stdin)
assert job["state"] == "cancelled", job
res = job["result"]
assert res["cancelled"], res
used, refunded = res["whatif_calls"], res["refunded_budget"]
assert used + refunded == 500000, (used, refunded)
print("  cancelled: used %d + refunded %d == budget 500000" % (used, refunded))
'

echo "== cancel a running nodba job, which polls no cancellation of its own"
id=$(curl -sf -X POST "$base/jobs" -d '{"workload":"tpch","algorithm":"nodba","budget":1000000}' |
    python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')
curl -sN "$base/jobs/$id/trace" | head -c 200 >/dev/null || true
curl -sf -X DELETE "$base/jobs/$id" >/dev/null
for i in $(seq 1 100); do
    state=$(curl -sf "$base/jobs/$id" | python3 -c 'import sys,json; print(json.load(sys.stdin)["state"])')
    [ "$state" != "running" ] && [ "$state" != "queued" ] && break
    sleep 0.1
done
curl -sf "$base/jobs/$id" | python3 -c '
import sys, json
job = json.load(sys.stdin)
assert job["state"] == "cancelled", job
res = job["result"]
used, refunded = res["whatif_calls"], res["refunded_budget"]
assert used + refunded == 1000000, (used, refunded)
print("  nodba cancelled: used %d + refunded %d == budget 1000000" % (used, refunded))
'

echo "== SIGTERM drain"
kill -TERM $pid
for i in $(seq 1 100); do
    kill -0 $pid 2>/dev/null || break
    sleep 0.1
done
if kill -0 $pid 2>/dev/null; then echo "tuned did not drain"; cat "$log"; exit 1; fi
wait $pid || { echo "tuned exited non-zero"; cat "$log"; exit 1; }
grep -q "drained, bye" "$log"
[ -s "$snapdir/tpch.snap" ] || { echo "drain did not save tpch.snap"; ls -la "$snapdir"; cat "$log"; exit 1; }
echo "  snapshot saved: $(wc -c < "$snapdir/tpch.snap") bytes"

echo "== warm reboot from snapshot"
log2=$(mktemp)
/tmp/tuned-smoke-bin -addr 127.0.0.1:0 -max-jobs 2 -cache-snapshot-dir "$snapdir" >"$log2" 2>&1 &
pid=$!
trap 'kill -9 $pid 2>/dev/null || true; rm -rf "$log" "$log2" "$snapdir" /tmp/tuned-smoke-bin' EXIT
for i in $(seq 1 50); do
    base=$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$log2" | head -1)
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "tuned did not restart"; cat "$log2"; exit 1; }
grep -q "warmed" "$log2" || { echo "boot did not load the snapshot"; cat "$log2"; exit 1; }

# The snapshot load is visible on /stats before any job runs.
curl -sf "$base/stats" | python3 -c '
import sys, json
st = json.load(sys.stdin)
snaps = {s["workload"]: s for s in st["snapshots"]}
s = snaps["tpch"]
assert s["entries"] > 0 and not s.get("error"), s
print("  snapshot loaded: %d entries" % s["entries"])
'

# An identical job against the warmed oracle must score a strictly higher
# hit rate than the cold boot did.
id=$(curl -sf -X POST "$base/jobs" -d '{"workload":"tpch","budget":80,"k":4}' |
    python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')
curl -sfN "$base/jobs/$id/trace" >/dev/null
curl -sf "$base/stats" | python3 -c "
import sys, json
st = json.load(sys.stdin)
o = {o['workload']: o for o in st['oracles']}['TPC-H']
warm, cold = o['hit_rate'], float('$cold_rate')
assert warm > cold, (warm, cold)
print('  warm hit rate: %.6f > cold %.6f' % (warm, cold))
"

echo "== second SIGTERM drain"
kill -TERM $pid
for i in $(seq 1 100); do
    kill -0 $pid 2>/dev/null || break
    sleep 0.1
done
if kill -0 $pid 2>/dev/null; then echo "tuned did not drain after reboot"; cat "$log2"; exit 1; fi
wait $pid || { echo "tuned exited non-zero after reboot"; cat "$log2"; exit 1; }
grep -q "drained, bye" "$log2"

echo "tuned smoke: OK"
