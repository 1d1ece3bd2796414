#!/usr/bin/env bash
# One-command CI gate: lint, contract lint, tier-1 tests, pydoc smoke and
# the docs link check.
#
#   scripts/ci.sh
#
# The gate fails when a lint stage finds an error or when any test fails.
# The performance gate is a tier-1 test: tests/test_work_counters.py pins
# the deterministic work counters (BDD nodes, cache misses, simulated
# cycles, claims decided) of the paper's flow, so it also runs under
# REPRO_SANITIZE and REPRO_TRACE.  Wall-clock timing is the repository
# benchmark's job (perfbench/run.py).

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ -n "${1:-}" ]]; then
    echo "error: unknown option '$1' (scripts/ci.sh takes no options)" >&2
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

echo "== contract lint in tests (RPL001,RPL002,RPL004,RPL006,RPL007,RPL010) =="
# The top-level test modules only: tests/fixtures/contracts/ commits
# violations on purpose, and ruff (F401) may not be installed.  RPL005,
# RPL008 and RPL009 stay out: tests build bare managers and contexts
# without a variable order on purpose.
python scripts/lint_contracts.py --rules RPL001,RPL002,RPL004,RPL006,RPL007,RPL010 tests/*.py

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
    "repro.pipeline.interlock",
    "repro.pipeline.simulator",
    "repro.pipeline.trace",
    "repro.pipeline.vcd",
    "repro.assertions.monitor",
    "repro.service",
    "repro.service.client",
    "repro.service.daemon",
    "repro.bdd",
    "repro.bdd.manager",
    "repro.bdd.ordering",
    "repro.bdd.serialize",
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

