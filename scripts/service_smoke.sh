#!/usr/bin/env bash
# End-to-end smoke of the verification service over a real socket:
# start `repro serve`, verify an architecture through the HTTP API,
# prove the warm-cache fast path on resubmission, and stage replay plus
# fault-mutant reuse on a reseeded resubmission, then SIGTERM the daemon
# and require a clean graceful exit.
#
#   scripts/service_smoke.sh [port]
#
# Uses only the repo and the Python stdlib; safe to run locally (state
# goes to a temp directory that is removed on exit).

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

PORT="${1:-8791}"
ARCH="fam-r4w2d5s1-bypass"
STAGES="properties,derive,faults"
WORKDIR="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== starting repro serve on port $PORT =="
python -m repro serve --port "$PORT" --store "$WORKDIR/store" --workers 1 \
    >"$WORKDIR/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 50); do
    if python -m repro jobs --port "$PORT" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "error: daemon exited during startup" >&2
        cat "$WORKDIR/serve.log" >&2
        exit 1
    fi
    sleep 0.2
done
python -m repro jobs --port "$PORT" >/dev/null  # fail loudly if still down

echo "== submit + follow: $ARCH =="
python -m repro submit --port "$PORT" --arch "$ARCH" \
    --stages "$STAGES" --timeout 300

echo "== resubmit must answer from the warm cache =="
python - "$PORT" "$ARCH" "$STAGES" <<'EOF'
import sys, time
from repro.service import ServiceClient

port, arch, stages = int(sys.argv[1]), sys.argv[2], sys.argv[3]
client = ServiceClient(port=port)
start = time.monotonic()
job = client.submit(arch=arch, stages=stages)["job"]
elapsed = time.monotonic() - start
assert job["state"] == "done" and job["ok"], job
assert job["from_cache"], "resubmission was not served from the cache"
# The acceptance bar is 100 ms; allow slack for loaded CI runners.
assert elapsed < 2.0, f"cached submission took {elapsed:.3f}s"
stats = client.store()["store"]["stats"]
assert stats["hits"] >= 1, stats
print(f"cached resubmission answered in {elapsed * 1000:.1f} ms "
      f"(store hits: {stats['hits']})")
EOF

echo "== a reseeded resubmission must replay stored stages and reuse mutants =="
python - "$PORT" "$ARCH" "$STAGES" <<'EOF'
import re
import sys
from repro.service import ServiceClient

port, arch, stages = int(sys.argv[1]), sys.argv[2], sys.argv[3]
client = ServiceClient(port=port)
job = client.submit(arch=arch, stages=stages, workload_seed=1)["job"]
assert not job["from_cache"], "a new workload seed is a new job key"
final = client.wait(job["id"], timeout=300)
assert final["state"] == "done" and final["ok"], final
stats = client.store()["store"]["stats"]
assert stats["stage_hits"] >= 2, stats
# The faults stage ran again at the new seed on the warm derivation: the
# seed-independent mutants come from its table instead of re-deriving.
reused = re.search(
    r'^repro_fault_mutants_total\{source="reused"\} (\d+)$', client.metrics(), re.M
)
assert reused and int(reused.group(1)) > 0, "no fault mutant was reused"
print(f"reseeded resubmission replayed stored stages "
      f"(stage hits: {stats['stage_hits']}) and reused "
      f"{reused.group(1)} fault mutant(s)")
EOF

echo "== /v1/metrics must expose nonzero job counters =="
python - "$PORT" <<'EOF'
import re
import sys

from repro.service import ServiceClient

client = ServiceClient(port=int(sys.argv[1]))
text = client.metrics()
match = re.search(r'^repro_service_jobs_total\{state="done"\} (\d+)$', text, re.M)
assert match and int(match.group(1)) >= 1, "no done jobs in /v1/metrics"
assert re.search(r"^repro_service_submissions_total [1-9]", text, re.M), \
    "no submissions counted"
samples = client.metrics(fmt="json")
cached = [s for s in samples if s["name"] == "repro_service_cache_answers_total"]
assert cached and cached[0]["value"] >= 1, "warm resubmission not counted"
hits = re.search(
    r'^repro_store_reads_total\{kind="job",outcome="hit"\} (\d+)$', text, re.M
)
assert hits and int(hits.group(1)) >= 1, "cached answer's store read not counted"
print(f"metrics endpoint OK: {match.group(1)} done job(s), "
      f"{len(samples)} samples in the JSON rendering")
EOF

echo "== graceful shutdown on SIGTERM =="
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
    echo "error: daemon did not exit cleanly" >&2
    cat "$WORKDIR/serve.log" >&2
    exit 1
fi
SERVER_PID=""
grep -q "service stopped" "$WORKDIR/serve.log"

echo "service smoke: OK"
