"""Tests for the parallel verification-campaign subsystem."""

import errno
import io
import json
import sys
import threading

import pytest

from repro.campaign import (
    CANONICAL_STAGES,
    CampaignSpec,
    CampaignSpecError,
    JobSpec,
    ResultStore,
    clear_warm_state,
    family_sweep,
    run_campaign,
    run_verification_job,
    shutdown_warm_pool,
)
from repro.campaign.runner import JobResult, StageResult
from repro.campaign.runner import run_traced_job
from repro.campaign.store import store_tally
from repro.cli import main as cli_main
from repro.obs import get_registry

#: Small enough that a full six-stage job takes ~0.1 s.
TINY = dict(workload_length=24, max_faults=2)


def tiny_job(arch="fam-r2w1d3s1-bypass", **overrides):
    params = dict(TINY)
    params.update(overrides)
    return JobSpec(arch=arch, **params)


def counters_since(before):
    """Registry counters gained since a snapshot, keyed as in Prometheus."""
    delta = get_registry().delta_since(before)
    return {key: entry[2] for key, entry in delta["counters"].items()}


def store_traffic_since(before):
    """The seven-key store tally of what the registry gained since a snapshot."""
    return store_tally(get_registry().delta_since(before)["counters"])


class TestSpecs:
    def test_job_round_trip(self):
        job = tiny_job(stages=("derive", "properties"), workload_seed=7)
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_stages_normalized_to_canonical_order(self):
        job = tiny_job(stages=("faults", "derive", "properties"))
        assert job.stages == ("properties", "derive", "faults")

    def test_unknown_stage_rejected(self):
        with pytest.raises(CampaignSpecError):
            tiny_job(stages=("transmogrify",))

    def test_unknown_job_field_rejected(self):
        with pytest.raises(CampaignSpecError):
            JobSpec.from_dict({"arch": "risc5", "solvent": True})

    def test_campaign_json_round_trip(self):
        spec = family_sweep(
            name="round-trip",
            registers=(2,),
            widths=(1, 2),
            depths=(3,),
            styles=("bypass",),
            extra_archs=("risc5",),
            workers=3,
        )
        assert CampaignSpec.loads(spec.dumps()) == spec

    def test_campaign_file_round_trip(self, tmp_path):
        spec = family_sweep(registers=(2,), widths=(1,), depths=(3,), styles=("bypass",))
        path = tmp_path / "campaign.json"
        spec.save(str(path))
        assert CampaignSpec.load(str(path)) == spec

    def test_job_key_is_stable_and_parameter_sensitive(self):
        job = tiny_job()
        assert job.job_key() == tiny_job().job_key()
        assert job.job_key() != tiny_job(workload_seed=1).job_key()
        assert job.job_key() != tiny_job(arch="fam-r2w1d3s1-blocking").job_key()

    def test_family_sweep_covers_the_grid(self):
        spec = family_sweep(
            registers=(2, 4), widths=(1, 2), depths=(3, 4), styles=("bypass", "blocking")
        )
        assert len(spec.jobs) == 16
        assert len({job.arch for job in spec.jobs}) == 16


class TestRunner:
    def test_tiny_job_passes_every_stage(self):
        result = run_verification_job(tiny_job())
        assert result.ok, result.error
        assert [stage.name for stage in result.stages] == list(tiny_job().stages)
        assert all(stage.ok for stage in result.stages)
        assert result.stage("derive").details["moe_flags"] > 0
        assert result.stage("analysis").details["unnecessary_stalls"] == 0
        assert result.stage("faults").details["missed"] == 0

    def test_stage_subset_runs_only_those_stages(self):
        result = run_verification_job(tiny_job(stages=("properties", "maximality")))
        assert result.ok, result.error
        assert [stage.name for stage in result.stages] == ["properties", "maximality"]

    def test_unknown_architecture_fails_cleanly(self):
        result = run_verification_job(tiny_job(arch="fam-r2w1d3s1-psychic"))
        assert not result.ok
        assert result.error is not None
        assert "psychic" in result.error

    def test_result_round_trip(self):
        result = run_verification_job(tiny_job(stages=("derive",)))
        rebuilt = JobResult.from_dict(result.as_dict())
        assert rebuilt.ok == result.ok
        assert rebuilt.job == result.job
        assert [s.as_dict() for s in rebuilt.stages] == [
            s.as_dict() for s in result.stages
        ]

    def test_result_schema_guard(self):
        payload = run_verification_job(tiny_job(stages=("derive",))).as_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError):
            JobResult.from_dict(payload)


class FullDiskStore(ResultStore):
    """A store whose every write fails as on a full disk."""

    def put(self, job, result):
        raise OSError(errno.ENOSPC, "No space left on device")

    def put_artifact(self, key, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def put_stage(self, key, result):
        raise OSError(errno.ENOSPC, "No space left on device")

    def put_trace(self, key, spans):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestStoreWriteErrors:
    def test_failed_writes_are_counted_not_fatal(self, tmp_path):
        clear_warm_state()
        registry = get_registry()
        before = registry.snapshot()
        result = run_traced_job(
            tiny_job(), store=FullDiskStore(tmp_path), trace={"id": "full-disk"}
        )
        assert result.ok, result.error
        counters = counters_since(before)
        assert counters['repro_store_write_errors_total{kind="artifact"}'] >= 1
        assert counters['repro_store_write_errors_total{kind="stage"}'] == len(
            result.stages
        )
        stage_spans = {
            s["name"]: s["attrs"]
            for s in result.trace_spans
            if s["attrs"].get("kind") == "stage"
        }
        assert len(stage_spans) == len(result.stages)
        for attrs in stage_spans.values():
            assert attrs["store_stage_write_error"].startswith("OSError")
        assert stage_spans["derive"]["store_artifact_write_error"].startswith("OSError")

    def test_failed_result_and_trace_writes_keep_the_campaign(self, tmp_path):
        clear_warm_state()
        before = get_registry().snapshot()
        spec = CampaignSpec(
            name="full-disk",
            jobs=(tiny_job(), tiny_job(arch="fam-r2w1d3s1-blocking")),
            workers=1,
        )
        report = run_campaign(spec, store=FullDiskStore(tmp_path), trace=True)
        assert report.total() == 2 and report.all_ok()
        counters = counters_since(before)
        assert counters['repro_store_write_errors_total{kind="job"}'] == 2
        assert counters['repro_store_write_errors_total{kind="trace"}'] == 2


class TestStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        job = tiny_job(stages=("derive",))
        assert store.get(job) is None
        result = run_verification_job(job)
        store.put(job, result)
        hit = store.get(job)
        assert hit is not None and hit.ok == result.ok
        assert len(store) == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = tiny_job(stages=("derive",))
        store.path_for(job).write_text("{not json", encoding="utf-8")
        assert store.get(job) is None

    def test_mismatched_job_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = tiny_job(stages=("derive",))
        other = tiny_job(stages=("derive",), workload_seed=5)
        store.put(job, run_verification_job(job))
        # Force the other job's result under this job's key.
        store.path_for(job).write_text(
            json.dumps(run_verification_job(other).as_dict()), encoding="utf-8"
        )
        assert store.get(job) is None

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        job = tiny_job(stages=("derive",))
        store.put(job, run_verification_job(job))
        assert store.clear() == 1
        assert len(store) == 0

    def test_leaked_temp_file_is_not_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / ".tmp-leaked.part").write_text("{}", encoding="utf-8")
        assert len(store) == 0
        assert store.keys() == []


def small_campaign(workers=1, **job_overrides):
    params = dict(TINY)
    params.update(job_overrides)
    return family_sweep(
        name="test-campaign",
        registers=(2,),
        widths=(1, 2),
        depths=(3,),
        styles=("bypass", "blocking"),
        workers=workers,
        workload_length=params["workload_length"],
        max_faults=params["max_faults"],
        workload_seed=params.get("workload_seed", 0),
    )


class TestOrchestrator:
    def test_serial_campaign_all_pass(self, tmp_path):
        spec = small_campaign(workers=1)
        report = run_campaign(spec, store=ResultStore(tmp_path))
        assert report.total() == 4
        assert report.all_ok()
        assert not report.cached()

    def test_second_run_hits_the_cache(self, tmp_path):
        spec = small_campaign(workers=1)
        store = ResultStore(tmp_path)
        run_campaign(spec, store=store)
        report = run_campaign(spec, store=store)
        assert report.all_ok()
        assert len(report.cached()) == report.total()
        assert report.timing_summary()["total"] == 0.0  # nothing ran fresh

    def test_no_cache_reruns_everything(self, tmp_path):
        spec = small_campaign(workers=1)
        store = ResultStore(tmp_path)
        run_campaign(spec, store=store)
        report = run_campaign(spec, store=store, use_cache=False)
        assert not report.cached()
        # The warm store holds every stage result, yet none is replayed.
        assert not any(
            stage.details.get("from_store")
            for result in report.results
            for stage in result.stages
        )
        assert report.cache["stage_hits"] == 0

    def test_process_pool_campaign(self, tmp_path):
        spec = small_campaign(workers=2)
        lines = []
        report = run_campaign(spec, store=ResultStore(tmp_path), progress=lines.append)
        assert report.all_ok()
        assert report.workers == 2
        assert len(lines) == report.total()

    def test_failures_are_reported_not_raised_and_not_cached(self, tmp_path):
        spec = CampaignSpec(
            name="with-failure",
            jobs=(tiny_job(stages=("derive",)), tiny_job(arch="fam-nonsense")),
            workers=1,
        )
        store = ResultStore(tmp_path)
        report = run_campaign(spec, store=store)
        assert not report.all_ok()
        assert len(report.failed()) == 1
        assert len(report.errored()) == 1
        assert len(store) == 1  # only the passing job was cached
        rerun = run_campaign(spec, store=store)
        assert len(rerun.cached()) == 1  # the failure re-ran

    def test_report_aggregation(self, tmp_path):
        spec = small_campaign(workers=1)
        report = run_campaign(spec, store=ResultStore(tmp_path))
        payload = report.as_dict()
        assert payload["total"] == 4
        assert payload["passed"] == 4
        assert payload["stage_pass_rates"]["derive"].startswith("4/4")
        text = report.describe()
        assert "test-campaign" in text
        assert "fam-r2w2d3s1-blocking" in text


class TestStoreTraffic:
    def test_job_lookups_are_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        job = tiny_job(stages=("properties",))
        result = run_verification_job(job)
        before = get_registry().snapshot()
        assert store.get(job) is None
        store.put(job, result)
        assert store.get(job) is not None
        store.path_for(job).write_text("{not json", encoding="utf-8")
        assert store.get(job) is None
        s = store_traffic_since(before)
        assert s["hits"] == 1
        assert s["misses"] == 2
        assert s["corrupt"] == 1

    def test_artifact_and_stage_lookups_are_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        before = get_registry().snapshot()
        assert store.get_artifact("deadbeef", bytes) is None
        store.put_artifact("deadbeef", b"RBDD-not-checked-here")
        assert store.get_artifact("deadbeef", bytes) == b"RBDD-not-checked-here"
        assert store.get_stage("derive", "cafe") is None
        store.put_stage("cafe", StageResult(name="derive", ok=True, seconds=0.1))
        assert store.get_stage("derive", "cafe") is not None
        # A stored stage answered under the wrong stage name is corrupt.
        assert store.get_stage("faults", "cafe") is None
        s = store_traffic_since(before)
        assert (s["artifact_hits"], s["artifact_misses"]) == (1, 1)
        assert (s["stage_hits"], s["stage_misses"]) == (1, 2)
        assert s["corrupt"] == 1
        # summary() reads the process-wide tally from the same registry.
        counters = get_registry().snapshot()["counters"]
        assert store.summary()["stats"] == store_tally(counters)

    def test_concurrent_lookups_are_all_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        threads, lookups = 16, 200
        before = get_registry().snapshot()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [store.get_stage("derive", "cafe") for _ in range(lookups)]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert store_traffic_since(before)["stage_misses"] == threads * lookups

    def test_stored_files_are_indented_sorted_json(self, tmp_path):
        store = ResultStore(tmp_path)
        stage = StageResult(name="derive", ok=True, seconds=0.1, details={"b": 1, "a": 2})
        path = store.put_stage("cafe", stage)
        expected = json.dumps(stage.as_dict(), indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert not list(tmp_path.glob(".tmp-*"))

    def test_stage_files_do_not_pollute_job_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_stage("cafe", StageResult(name="derive", ok=True, seconds=0.1))
        store.put_artifact("deadbeef", b"x")
        assert len(store) == 0
        assert store.stage_keys() == ["cafe"]
        assert store.artifact_keys() == ["deadbeef"]
        assert store.clear() == 2
        assert store.stage_keys() == [] and store.artifact_keys() == []


class TestPaperExampleFaults:
    def test_faults_stage_details_spans_and_checker_size(self):
        clear_warm_state()
        result = run_traced_job(
            JobSpec(arch="dac2002-example", stages=("faults",)), trace={"id": "t-faults"}
        )
        assert result.ok, result.error
        assert result.stage("faults").details == {
            "injected": 4,
            "vacuous": 0,
            "detected_any": 4,
            "detected_simulation": 4,
            "detected_property": 4,
            "missed": 0,
        }
        spans = result.trace_spans
        (stage,) = [s for s in spans if s["name"] == "faults"]
        # A declaration-order checker allocated about 670k slots on this
        # stage; the register-interleaved one needs under 20k.  A count,
        # not a wall time, so the bound holds on any machine.
        assert stage["attrs"]["checker_kernel"]["allocated_slots"] < 50_000
        faults = [s for s in spans if s["name"] == "fault"]
        assert len(faults) == 4
        assert {s["parent"] for s in faults} == {stage["id"]}
        fault_ids = {s["id"] for s in faults}
        for child in ("fault.simulate", "fault.check"):
            children = [s for s in spans if s["name"] == child]
            assert len(children) == 4
            assert {s["parent"] for s in children} == fault_ids
        simulated = [s for s in spans if s["name"] == "fault.simulate"]
        assert sum(s["attrs"]["cycles"] for s in simulated) == sum(
            s["attrs"]["cycles"] for s in faults
        ) > 0
        assert all("hazards" in s["attrs"] for s in simulated + faults)
        # A cold job decides each of its 4 distinct mutants afresh.
        checks = [s for s in spans if s["name"] == "fault.check"]
        assert all(s["attrs"]["claims"] > 0 for s in checks)


class TestIncremental:
    def test_stage_keys_follow_dependencies(self):
        base = tiny_job()
        seeded = tiny_job(workload_seed=9)
        for stage in ("properties", "derive", "maximality", "obligations"):
            assert base.stage_key(stage) == seeded.stage_key(stage)
        for stage in ("faults", "analysis"):
            assert base.stage_key(stage) != seeded.stage_key(stage)
        other_arch = tiny_job(arch="fam-r2w1d4s1-bypass")
        for stage in CANONICAL_STAGES:
            assert base.stage_key(stage) != other_arch.stage_key(stage)
        with pytest.raises(CampaignSpecError):
            base.stage_key("transmogrify")

    def test_campaign_populates_artifacts_and_stage_results(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_campaign(small_campaign(workers=1), store=store)
        assert report.all_ok()
        # One derivation artifact per architecture, one stage file per
        # distinct (stage, dependency-hash) pair.
        assert len(store.artifact_keys()) == 4
        assert len(store.stage_keys()) == 4 * len(CANONICAL_STAGES)
        assert report.cache is not None
        assert report.cache["misses"] == 4  # job-level cold misses
        assert report.cache_misses() > 0 and report.cache_corrupt() == 0

    def test_warm_state_serves_derivation(self):
        clear_warm_state()
        job = tiny_job(stages=("derive",))
        first = run_verification_job(job)
        assert first.stage("derive").details["source"] == "computed"
        second = run_verification_job(job)
        assert second.stage("derive").details["source"] == "warm"

    def test_artifact_serves_derivation_across_cold_starts(self, tmp_path):
        store = ResultStore(tmp_path)
        job = tiny_job(stages=("derive", "maximality"))
        clear_warm_state()
        first = run_verification_job(job, store=store)
        assert first.stage("derive").details["source"] == "computed"
        clear_warm_state()  # simulate a fresh worker process
        second = run_verification_job(job, store=store, use_cache=False)
        assert second.ok
        assert second.stage("derive").details["source"] == "artifact"

    def test_corrupt_artifact_is_counted_and_rebuilt(self, tmp_path):
        from repro.bdd import inspect_artifact

        store = ResultStore(tmp_path)
        job = tiny_job(stages=("derive",))
        clear_warm_state()
        run_verification_job(job, store=store)
        key = job.stage_key("derive")
        good = store.artifact_path(key).read_bytes()
        store.artifact_path(key).write_bytes(good[:-7] + b"garbage")
        clear_warm_state()
        before = get_registry().snapshot()
        result = run_verification_job(job, store=store, use_cache=False)
        assert result.ok
        assert result.stage("derive").details["source"] == "computed"
        traffic = store_traffic_since(before)
        assert traffic["corrupt"] == 1
        assert (traffic["artifact_hits"], traffic["artifact_misses"]) == (0, 1)
        # The bad file was dropped and replaced by a valid artifact.
        inspect_artifact(store.artifact_path(key).read_bytes())

    def test_seed_change_reruns_only_workload_stages(self, tmp_path):
        store = ResultStore(tmp_path)
        clear_warm_state()
        cold = run_campaign(small_campaign(workers=1), store=store)
        assert cold.all_ok()
        clear_warm_state()  # reuse must come from the store, not warmth
        report = run_campaign(small_campaign(workers=1, workload_seed=9), store=store)
        assert report.all_ok()
        assert not report.cached()  # every job key changed with the seed
        for result in report.results:
            replayed = [
                s.name for s in result.stages if s.details.get("from_store")
            ]
            executed = [
                s.name for s in result.stages if not s.details.get("from_store")
            ]
            assert replayed == ["properties", "derive", "maximality", "obligations"]
            assert executed == ["faults", "analysis"]
        cache = report.cache
        assert cache["stage_hits"] == 4 * 4
        assert cache["stage_misses"] == 2 * 4
        # The faults stage reloaded each derivation; analysis reused it.
        assert cache["artifact_hits"] == 4

    def test_each_stage_is_timed_once(self, tmp_path):
        store = ResultStore(tmp_path)
        job = tiny_job()
        registry = get_registry()
        for use_cache in (False, True):
            before = registry.snapshot()
            result = run_verification_job(job, store=store, use_cache=use_cache)
            assert result.ok, result.error
            observed = sum(
                state["count"]
                for name, _, state in registry.delta_since(before)["histograms"].values()
                if name == "repro_stage_seconds"
            )
            assert observed == len(job.stages)
        # The second run replayed every stage from the store.
        assert all(stage.details.get("from_store") for stage in result.stages)

    def test_family_edit_reruns_only_affected_jobs(self, tmp_path):
        store = ResultStore(tmp_path)
        base = family_sweep(
            name="base", registers=(2,), widths=(1,), depths=(3,),
            styles=("bypass", "blocking"), workers=1, **TINY,
        )
        assert run_campaign(base, store=store).all_ok()
        widened = family_sweep(
            name="widened", registers=(2,), widths=(1,), depths=(3, 4),
            styles=("bypass", "blocking"), workers=1, **TINY,
        )
        report = run_campaign(widened, store=store)
        assert report.all_ok()
        cached = {r.job.arch for r in report.results if r.cached}
        fresh = {r.job.arch for r in report.results if not r.cached}
        assert cached == {"fam-r2w1d3s1-bypass", "fam-r2w1d3s1-blocking"}
        assert fresh == {"fam-r2w1d4s1-bypass", "fam-r2w1d4s1-blocking"}

    def test_no_cache_on_warm_store_executes_every_stage(self, tmp_path):
        store = ResultStore(tmp_path)
        assert run_verification_job(tiny_job(), store=store).ok
        clear_warm_state()
        reseeded = tiny_job(workload_seed=9)
        result = run_verification_job(reseeded, store=store, use_cache=False)
        assert result.ok, result.error
        assert [stage.name for stage in result.stages] == list(CANONICAL_STAGES)
        assert not any(stage.details.get("from_store") for stage in result.stages)

    def test_campaign_without_store_executes_every_stage(self):
        report = run_campaign(small_campaign(workers=1), store=None)
        assert report.all_ok()
        assert not report.cached()
        assert report.cache is None  # no store, no tally
        assert not any(
            stage.details.get("from_store")
            for result in report.results
            for stage in result.stages
        )


class TestWarmPool:
    def test_persistent_pool_is_reused_across_campaigns(self, tmp_path):
        from repro.campaign import orchestrator

        shutdown_warm_pool()
        spec = small_campaign(workers=2)
        run_campaign(spec, store=None, use_cache=False)
        pool = orchestrator._WARM_POOL
        assert pool is not None
        run_campaign(spec, store=None, use_cache=False)
        assert orchestrator._WARM_POOL is pool
        shutdown_warm_pool()
        assert orchestrator._WARM_POOL is None

    def test_worker_store_traffic_is_aggregated(self, tmp_path):
        # Fresh pool AND no inherited warmth: forked workers copy the
        # parent's warm state, which would satisfy the derivation without
        # touching the store.
        shutdown_warm_pool()
        clear_warm_state()
        store = ResultStore(tmp_path)
        report = run_campaign(small_campaign(workers=2), store=store)
        assert report.all_ok()
        cache = report.cache
        # The workers wrote 4 artifacts (one per arch) and reported the
        # misses home; the parent only saw the job-level misses.
        assert cache["misses"] == 4
        assert cache["artifact_misses"] == 4
        # Persisted results must not leak run-specific counters.
        assert all(r.metrics is None for r in report.results)
        for result in report.results:
            assert "metrics" not in json.loads(store.path_for(result.job).read_text())
        shutdown_warm_pool()

    def test_on_result_streams_every_job(self, tmp_path):
        seen = []
        report = run_campaign(
            small_campaign(workers=1),
            store=ResultStore(tmp_path),
            on_result=lambda result: seen.append(result.job.arch),
        )
        assert sorted(seen) == sorted(r.job.arch for r in report.results)


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCampaignCli:
    def test_list_does_not_verify(self, tmp_path):
        code, output = run_cli(
            "campaign", "--registers", "2", "--widths", "1,2", "--depths", "3",
            "--styles", "bypass", "--list", "--store", str(tmp_path / "s"),
        )
        assert code == 0
        assert "2 jobs" in output
        assert "fam-r2w2d3s1-bypass" in output

    def test_sweep_report_and_cache(self, tmp_path):
        store = str(tmp_path / "store")
        report_path = str(tmp_path / "report.json")
        args = (
            "campaign", "--registers", "2", "--widths", "1", "--depths", "3",
            "--styles", "bypass,blocking", "--workers", "1",
            "--length", "24", "--max-faults", "1",
            "--store", store, "--report", report_path,
        )
        code, output = run_cli(*args)
        assert code == 0
        assert "2/2 (100%) passed" in output
        payload = json.loads(open(report_path, encoding="utf-8").read())
        assert payload["passed"] == 2
        code, output = run_cli(*args)
        assert code == 0
        assert output.count("cached (ok)") == 2

    def test_campaign_file_and_named_archs(self, tmp_path):
        saved = str(tmp_path / "campaign.json")
        code, output = run_cli(
            "campaign", "--no-family", "--arch", "risc5",
            "--length", "24", "--max-faults", "1", "--workers", "1",
            "--store", str(tmp_path / "store"), "--save-campaign", saved, "--list",
        )
        assert code == 0
        spec = CampaignSpec.load(saved)
        assert [job.arch for job in spec.jobs] == ["risc5"]
        code, output = run_cli(
            "campaign", "--campaign-file", saved, "--workers", "1",
            "--store", str(tmp_path / "store"),
        )
        assert code == 0
        assert "risc5" in output

    def test_csv_options_tolerate_spaces(self, tmp_path):
        code, output = run_cli(
            "campaign", "--registers", "2", "--widths", "1", "--depths", "3",
            "--styles", "bypass, blocking", "--stages", "properties, derive",
            "--list", "--store", str(tmp_path / "s"),
        )
        assert code == 0
        assert "2 jobs" in output
        assert "stages=properties,derive" in output

    def test_no_family_without_archs_is_an_error(self, tmp_path):
        code, _ = run_cli("campaign", "--no-family", "--store", str(tmp_path / "s"))
        assert code == 2

    def test_arch_accepts_family_names_everywhere(self):
        code, output = run_cli("show-arch", "--arch", "fam-r2w2d3s1-bypass")
        assert code == 0
        assert "fam-r2w2d3s1-bypass" in output
        code, output = run_cli("derive", "--arch", "fam-r2w1d3s1-blocking")
        assert code == 0
        assert "MOE" in output or "moe" in output

    def test_unknown_arch_is_a_clean_cli_error(self):
        code, _ = run_cli("show-arch", "--arch", "fam-unparseable")
        assert code == 2

    def test_campaign_without_store_runs(self):
        code, output = run_cli(
            "campaign", "--registers", "2", "--widths", "1", "--depths", "3",
            "--styles", "bypass", "--store", "", "--workers", "1",
            "--length", "24", "--max-faults", "1",
        )
        assert code == 0
        assert "store:" not in output  # no store, no cache tally

    def test_incremental_sweep_and_cache_tally(self, tmp_path):
        store = str(tmp_path / "store")
        base = (
            "campaign", "--registers", "2", "--widths", "1", "--depths", "3",
            "--styles", "bypass", "--workers", "1",
            "--length", "24", "--max-faults", "1", "--store", store,
        )
        code, output = run_cli(*base)
        assert code == 0
        assert "store:" in output  # the cache tally is surfaced
        clear_warm_state()
        code, output = run_cli(*base, "--seed", "9")
        assert code == 0
        assert "stages 4/6 hit" in output

    def test_artifact_verb_lists_and_inspects(self, tmp_path):
        store = str(tmp_path / "store")
        code, _ = run_cli(
            "campaign", "--registers", "2", "--widths", "1", "--depths", "3",
            "--styles", "bypass", "--workers", "1",
            "--length", "24", "--max-faults", "1", "--store", store,
        )
        assert code == 0
        code, output = run_cli("artifact", "--store", store)
        assert code == 0
        assert "fam-r2w1d3s1-bypass" in output
        assert "+covers" in output
        artifact_file = next(
            str(p) for p in __import__("pathlib").Path(store).glob("artifact-*.bdd")
        )
        code, output = run_cli("artifact", "--file", artifact_file)
        assert code == 0
        payload = json.loads(output)
        assert payload["payload"]["kind"] == "derivation"

    def test_artifact_verb_clean_errors(self, tmp_path):
        code, _ = run_cli("artifact", "--store", str(tmp_path / "nope"))
        assert code == 2
        bad = tmp_path / "bad.bdd"
        bad.write_bytes(b"not an artifact")
        code, _ = run_cli("artifact", "--file", str(bad))
        assert code == 2
        code, output = run_cli("artifact", "--store", str(tmp_path))
        assert code == 0
        assert "no artifacts" in output

    def test_artifact_verb_lists_only_the_store_artifacts(self, tmp_path):
        from repro.bdd import dump_nodes
        from repro.expr import Var
        from repro.symbolic import SymbolicContext

        store = ResultStore(tmp_path / "store")
        context = SymbolicContext(["a", "b"])
        function = context.lift(Var("a") & Var("b"))
        store.put_artifact("k1", dump_nodes(context.manager, roots={"f": function.node}))
        store.put_stage("k2", StageResult(name="derive", ok=True, seconds=0.0, details={}))
        code, output = run_cli("artifact", "--store", str(store.root))
        assert code == 0
        lines = output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{store.artifact_path('k1').name}: -  nodes=")


def test_stage_result_round_trip():
    stage = StageResult(name="derive", ok=True, seconds=0.25, details={"n": 3})
    assert StageResult.from_dict(stage.as_dict()).as_dict() == stage.as_dict()
