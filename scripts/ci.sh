#!/usr/bin/env bash
# One-command CI gate: lint, tier-1 tests, then the quick benchmark check.
#
#   scripts/ci.sh                    run the full gate
#   scripts/ci.sh --update-baseline  regenerate BENCH_QUICK.json and exit
#
# The gate fails when the lint stage finds an error, when any test fails,
# or when a quick-size benchmark scenario regresses more than the
# tolerance against the committed BENCH_QUICK.json baseline (beyond an
# absolute slack that absorbs timer noise on millisecond scenarios).  A
# scenario missing from the baseline (i.e. newer than it) is reported as
# a warning and skipped, not failed — roll the baseline to start gating it.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

BASELINE=BENCH_QUICK.json

if [[ "${1:-}" == "--update-baseline" ]]; then
    echo "== regenerating $BASELINE (quick sizes, 3 repetitions) =="
    python -m repro bench --quick --repeat 3 --out "$BASELINE"
    echo "baseline updated; commit $BASELINE with the change that moved it"
    exit 0
elif [[ -n "${1:-}" ]]; then
    echo "error: unknown option '$1' (supported: --update-baseline)" >&2
    exit 2
fi

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests
else
    echo "ruff not installed — skipping lint stage (CI installs it; locally: pip install ruff)"
fi

echo "== contract lint (RPL rules) =="
python scripts/lint_contracts.py

echo "== unused imports in tests (RPL010) =="
# The top-level test modules only: tests/fixtures/contracts/ commits
# unused imports on purpose, and ruff (F401) may not be installed.
python scripts/lint_contracts.py --rules RPL010 tests/*.py

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== pydoc render smoke (public API docstrings) =="
# pydoc's CLI exit codes are unreliable across versions; render in-process
# so a module that fails to import or document fails the gate loudly.
python - <<'EOF'
import pydoc

MODULES = [
    "repro.devtools",
    "repro.devtools.lint",
    "repro.devtools.rules",
    "repro.devtools.sanitizer",
    "repro.campaign",
    "repro.campaign.orchestrator",
    "repro.campaign.spec",
    "repro.campaign.store",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.pipeline.simulator",
    "repro.pipeline.trace",
    "repro.assertions.monitor",
    "repro.service",
    "repro.service.client",
    "repro.service.daemon",
    "repro.bdd",
    "repro.bdd.manager",
    "repro.bdd.ordering",
    "repro.symbolic",
    "repro.symbolic.serialize",
    "repro.checking.bmc",
    "repro.expr",
    "repro.checking",
    "repro.assertions",
    "repro.sat",
    "repro.spec",
    "repro.analysis",
    "repro.synth",
    "repro.faults",
    "repro.archs",
]
for name in MODULES:
    text = pydoc.render_doc(name, renderer=pydoc.plaintext)
    assert len(text) > 200, f"suspiciously thin pydoc for {name}"
print(f"pydoc renders cleanly for {len(MODULES)} modules")
EOF

echo "== docs link check =="
python scripts/check_docs_links.py

echo "== quick benchmark gate =="
if [[ -n "${REPRO_SANITIZE:-}" ]]; then
    # The sanitizer quarantines freed slots and validates every operand —
    # deliberately slower.  Timing it against the plain-kernel baseline
    # would only measure the sanitizer, so the gate is skipped.
    echo "REPRO_SANITIZE is set — skipping the benchmark gate (sanitized kernel is intentionally slower)"
    exit 0
fi
if [[ -n "${REPRO_TRACE:-}" ]]; then
    # Tracing records a span per stage/job and writes NDJSON traces; the
    # baseline was measured untraced, so the comparison would gate on the
    # tracer, not the kernel.
    echo "REPRO_TRACE is set — skipping the benchmark gate (traced runs are not comparable to the untraced baseline)"
    exit 0
fi
if [[ ! -f "$BASELINE" ]]; then
    echo "error: benchmark baseline $BASELINE is missing." >&2
    echo "Every clone ships one; if you removed it intentionally, regenerate it with:" >&2
    echo "    scripts/ci.sh --update-baseline" >&2
    echo "and commit the result." >&2
    exit 1
fi
python -m repro bench --quick --check --baseline "$BASELINE"
