"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/smoke.py -q

The file name keeps it out of the repository's test suite; run it
explicitly.  It checks that every metric ``BENCHMARK.json`` names is
emitted with its unit, that a failing operation is counted rather than
crashing the run, and that daemons, the warm pool and the temporary
stores are torn down when a run errors.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probes  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
SEED = 3

#: Tiny inputs per workload: two family jobs, two small scoreboards, two
#: service members.
TINY = {
    "sweep_fresh": dict(registers=(2,), widths=(1,), depths=(3, 4), styles=("bypass",)),
    "derive_scale": dict(sizes=(2, 4)),
    "service_mixed": dict(
        members=("fam-r2w1d3s1-bypass", "fam-r2w1d3s1-blocking"), trace_ops=8
    ),
}


@pytest.fixture
def ws():
    workspace = workloads.Workspace(ROOT)
    yield workspace
    workspace.close()
    assert not workspace.dir.exists()


def run(name: str, ws, trace: bool, **overrides) -> workloads.Outcome:
    return workloads.WORKLOADS[name](ws, SEED, 0.5, trace, **{**TINY[name], **overrides})


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert PER_LAYER == probes.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(TINY))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, ws):
    outcome = run(name, ws, trace=False)
    assert {metric: unit for metric, (_, unit) in outcome.metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())
    assert outcome.attempted > 0 and outcome.failed == 0


@pytest.mark.parametrize("name", list(TINY))
def test_every_per_layer_metric_is_emitted_with_its_unit(name, ws):
    outcome = run(name, ws, trace=True)
    assert {metric: unit for metric, (_, unit) in outcome.metrics.items()} == PER_LAYER
    assert outcome.metrics["bench.traced_s"][0] > 0
    assert outcome.failed == 0
    assert (ws.traces / f"{name}-seed{SEED}.ndjson").stat().st_size > 0


def test_failing_job_counts_in_sweep(ws):
    outcome = run("sweep_fresh", ws, trace=False, extra_archs=("no-such-arch",))
    assert outcome.failed * 3 == outcome.attempted


def test_failing_property_check_counts_in_derive(ws, monkeypatch):
    import repro.spec
    from repro.spec.properties import PropertyCheck

    monkeypatch.setattr(
        repro.spec,
        "check_most_liberal_satisfies",
        lambda spec, derivation: PropertyCheck(name="injected", holds=False, detail=""),
    )
    outcome = run("derive_scale", ws, trace=False)
    assert outcome.attempted > 0 and outcome.failed == outcome.attempted


def test_refused_submission_counts_in_service(ws, monkeypatch):
    from repro.service import ServiceClient

    submit = ServiceClient.submit
    first_fresh = SEED * 100_000 + 1

    def refused_once(self, arch=None, **knobs):
        if knobs.get("workload_seed") == first_fresh:
            arch = "no-such-arch"
        return submit(self, arch=arch, **knobs)

    monkeypatch.setattr(ServiceClient, "submit", refused_once)
    outcome = run("service_mixed", ws, trace=False)
    assert outcome.failed == 1 and outcome.attempted >= 4


def test_daemons_are_stopped_when_a_service_run_errors(ws, monkeypatch):
    started = []
    daemon_init = workloads.Daemon.__init__

    def tracked(self, *args, **kwargs):
        started.append(self)
        daemon_init(self, *args, **kwargs)

    def broken(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.Daemon, "__init__", tracked)
    monkeypatch.setattr(workloads._Traffic, "step", broken)
    with pytest.raises(RuntimeError, match="injected"):
        run("service_mixed", ws, trace=False)
    assert len(started) == workloads.SETUP_REPEATS
    assert all(daemon.proc.poll() is not None for daemon in started)


def test_pool_sampler_and_store_are_torn_down_when_a_campaign_errors(ws, monkeypatch):
    import repro.campaign

    run_campaign = repro.campaign.run_campaign

    def failing_on_result(spec, **kwargs):
        def explode(result):
            raise RuntimeError("injected")

        return run_campaign(spec, **{**kwargs, "on_result": explode})

    monkeypatch.setattr(repro.campaign, "run_campaign", failing_on_result)
    with pytest.raises(RuntimeError, match="injected"):
        run("sweep_fresh", ws, trace=False)
    assert multiprocessing.active_children() == []
    assert not any(ws.dir.glob("store-*"))
    sampler = subprocess.run(
        ["pgrep", "-f", str(ws.dir / "sampler")], capture_output=True, text=True
    )
    assert sampler.stdout == ""


def test_run_refuses_without_the_source_tree(ws):
    bare = ws.fresh_dir("bare")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
