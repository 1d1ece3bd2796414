"""Tests for the observability layer (repro.obs) and its surfacing.

Covers the span tracer (nesting, attributes, the no-op fast path), the
metrics registry (counters/gauges/histograms, worker delta fold-up, both
wire renderings), the campaign integration (one correlation id across the
parent and real forked workers, NDJSON traces in the result store), the
``/v1/metrics`` endpoint over a live daemon socket, and the ``repro
trace`` CLI verb.
"""

import io
import os
import re
import time
from pathlib import Path

import pytest

from repro.campaign import JobSpec, ResultStore, family_sweep, run_campaign
from repro.campaign.runner import run_traced_job
from repro.cli import main as cli_main
from repro.obs import (
    KernelWatch,
    MetricsRegistry,
    Tracer,
    annotate,
    dump_ndjson,
    get_registry,
    load_ndjson,
    record_kernel_stats,
    render_rollup,
    render_waterfall,
    rollup_spans,
    span,
    tracing_enabled,
)
from repro.obs.trace import _NULL_SPAN

ARCH = "fam-r2w1d3s1-bypass"
ARCH2 = "fam-r2w1d3s1-blocking"
LIGHT_STAGES = ("properties", "derive")


def light_job(arch=ARCH, stages=LIGHT_STAGES):
    return JobSpec(arch=arch, stages=stages, workload_length=24, max_faults=2)


def light_sweep(workers=1):
    return family_sweep(
        name="obs-test",
        registers=(2,),
        widths=(1,),
        depths=(3,),
        styles=("bypass", "blocking"),
        workers=workers,
        stages=LIGHT_STAGES,
        workload_length=24,
        max_faults=2,
    )


# -- the tracer ---------------------------------------------------------------------


class TestSpans:
    def test_nesting_attrs_and_parent_links(self):
        tracer = Tracer()
        with tracer.activate():
            with span("outer", arch="x") as outer:
                outer.annotate(extra=1)
                with span("inner"):
                    annotate(deep=True)
        outer_rec, inner_rec = tracer.spans[-1], tracer.spans[0]
        assert outer_rec["name"] == "outer"
        assert outer_rec["attrs"] == {"arch": "x", "extra": 1}
        assert inner_rec["name"] == "inner"
        assert inner_rec["attrs"] == {"deep": True}
        assert inner_rec["parent"] == outer_rec["id"]
        assert outer_rec["trace"] == inner_rec["trace"] == tracer.trace_id
        assert outer_rec["pid"] == os.getpid()
        assert outer_rec["seconds"] >= inner_rec["seconds"] >= 0.0
        assert outer_rec["ok"] and inner_rec["ok"]

    def test_exception_marks_span_not_ok_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.activate():
                with span("doomed"):
                    raise ValueError("boom")
        assert tracer.spans[0]["ok"] is False

    def test_sibling_span_ids_are_distinct_across_tracers(self):
        a, b = Tracer(), Tracer()
        with a.activate():
            with span("one"):
                pass
        with b.activate():
            with span("two"):
                pass
        assert a.spans[0]["id"] != b.spans[0]["id"]

    def test_root_parent_threads_through(self):
        tracer = Tracer(trace_id="t-fixed", root_parent="campaign-7")
        with tracer.activate():
            with span("job"):
                pass
        assert tracer.spans[0]["trace"] == "t-fixed"
        assert tracer.spans[0]["parent"] == "campaign-7"

    def test_attr_named_name_does_not_collide(self):
        tracer = Tracer()
        with tracer.activate():
            with span("campaign", name="sweep"):
                pass
        assert tracer.spans[0]["attrs"] == {"name": "sweep"}

    def test_rollup_spans(self):
        tracer = Tracer()
        with tracer.activate():
            for _ in range(3):
                with span("stage"):
                    pass
        rollups = rollup_spans(tracer.spans)
        assert rollups["stage"]["count"] == 3
        assert rollups["stage"]["seconds_total"] >= rollups["stage"]["seconds_max"]


class TestNoOpMode:
    def test_span_without_tracer_is_shared_noop(self):
        first = span("anything", attr=1)
        second = span("else")
        assert first is second is _NULL_SPAN
        with first as live:
            live.annotate(ignored=True)  # must not raise

    def test_annotate_without_tracer_is_noop(self):
        annotate(ignored=True)

    def test_tracing_enabled_reads_env_late(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not tracing_enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert tracing_enabled()

    def test_noop_span_overhead_is_negligible(self):
        # The off-by-default guarantee: with no active tracer a span is
        # one thread-local lookup.  100k enter/exit pairs in well under a
        # second leaves ~10x headroom over observed cost even on a
        # loaded CI box.
        start = time.perf_counter()
        for _ in range(100_000):
            with span("hot"):
                pass
        assert time.perf_counter() - start < 1.0


class TestNdjson:
    def test_round_trip(self):
        tracer = Tracer()
        with tracer.activate():
            with span("a", k="v"):
                pass
        text = dump_ndjson(tracer.spans)
        assert text.endswith("\n")
        assert load_ndjson(text) == tracer.spans

    def test_load_error_names_the_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_ndjson('{"ok": 1}\n{broken\n')


# -- the metrics registry -----------------------------------------------------------


class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("repro_campaign_runs_total")
        reg.inc("repro_campaign_jobs_total", 2, outcome="ok")
        reg.set_gauge("repro_service_queue_depth", 3)
        reg.observe("repro_job_seconds", 0.05)
        reg.observe("repro_job_seconds", 10.0)
        samples = {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry
            for entry in reg.samples()
        }
        assert samples[("repro_campaign_runs_total", ())]["value"] == 1
        assert samples[("repro_campaign_jobs_total", (("outcome", "ok"),))][
            "value"
        ] == 2
        assert samples[("repro_service_queue_depth", ())]["value"] == 3
        histogram = samples[("repro_job_seconds", ())]
        assert histogram["count"] == 2
        assert sum(histogram["counts"]) == 2
        assert histogram["sum"] == pytest.approx(10.05)

    def test_prometheus_wire_format_parses(self):
        reg = MetricsRegistry()
        reg.inc("repro_campaign_jobs_total", outcome="ok")
        reg.set_gauge("repro_kernel_load_factor", 0.25)
        reg.observe("repro_stage_seconds", 0.002, stage="derive")
        text = reg.render_prometheus()
        assert text.endswith("\n")
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"'
            r'(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9][0-9.e+-]*$'
        )
        seen_types = {}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, mtype = line.split(" ")
                seen_types[name] = mtype
                continue
            assert sample_re.match(line), line
            base = line.split("{")[0].split(" ")[0]
            stripped = re.sub(r"_(bucket|sum|count)$", "", base)
            assert base in seen_types or stripped in seen_types, line
        assert seen_types["repro_campaign_jobs_total"] == "counter"
        assert seen_types["repro_kernel_load_factor"] == "gauge"
        assert seen_types["repro_stage_seconds"] == "histogram"
        # Histograms render cumulative buckets plus the +Inf catch-all.
        assert 'repro_stage_seconds_bucket{le="+Inf",stage="derive"} 1' in text
        assert 'repro_stage_seconds_count{stage="derive"} 1' in text

    def test_fold_from_two_workers(self):
        parent = MetricsRegistry()
        parent.inc("repro_campaign_runs_total")
        deltas = []
        for seconds in (0.01, 0.3):
            worker = MetricsRegistry()
            before = worker.snapshot()
            worker.inc("repro_kernel_gc_runs_total", 2)
            worker.observe("repro_job_seconds", seconds)
            worker.set_gauge("repro_kernel_live_nodes", 123)
            deltas.append(worker.delta_since(before))
        for delta in deltas:
            assert "repro_kernel_live_nodes" not in delta.get("counters", {})
            parent.fold(delta)
        samples = {
            entry["name"]: entry
            for entry in parent.samples()
            if not entry["labels"]
        }
        assert samples["repro_kernel_gc_runs_total"]["value"] == 4
        assert samples["repro_job_seconds"]["count"] == 2
        assert samples["repro_job_seconds"]["sum"] == pytest.approx(0.31)
        # Gauges are point-in-time readings and never travel.
        assert "repro_kernel_live_nodes" not in samples

    def test_delta_since_drops_zero_entries(self):
        reg = MetricsRegistry()
        reg.inc("repro_campaign_runs_total")
        before = reg.snapshot()
        delta = reg.delta_since(before)
        assert delta == {"counters": {}, "histograms": {}}

    def test_kernel_watch_and_record(self, example_derivation):
        manager = example_derivation.context.manager
        watch = KernelWatch(manager)
        delta = watch.delta()
        assert delta["cache_hits"] == delta["cache_misses"] == 0
        assert delta["live_nodes"] >= 0
        reg = MetricsRegistry()
        record_kernel_stats({"gc_runs": 3, "live_nodes": 42}, registry=reg)
        samples = {entry["name"]: entry for entry in reg.samples()}
        assert samples["repro_kernel_gc_runs_total"]["value"] == 3
        assert samples["repro_kernel_live_nodes"]["value"] == 42


# -- campaign integration -----------------------------------------------------------


class TestCampaignTracing:
    def test_traced_job_propagates_correlation(self):
        result = run_traced_job(
            light_job(stages=("properties",)),
            trace={"id": "t-fixed", "parent": "parent-1"},
        )
        assert result.ok
        assert result.trace_spans
        assert {rec["trace"] for rec in result.trace_spans} == {"t-fixed"}
        job_spans = [r for r in result.trace_spans if r["name"] == "job"]
        assert len(job_spans) == 1
        assert job_spans[0]["parent"] == "parent-1"
        stage_spans = [r for r in result.trace_spans if r["name"] == "properties"]
        assert stage_spans and stage_spans[0]["parent"] == job_spans[0]["id"]

    def test_untraced_job_records_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        result = run_traced_job(light_job(stages=("properties",)), trace=None)
        assert result.ok
        assert result.trace_spans is None

    def test_fork_pool_campaign_single_trace_id(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = light_sweep(workers=2)
        assert len(spec.jobs) == 2
        report = run_campaign(spec, store=store, trace=True)
        assert report.all_ok()
        assert report.trace is not None
        trace_id = report.trace["trace_id"]

        keys = store.trace_keys()
        assert len(keys) == 2
        spans = []
        for key in keys:
            spans.extend(store.get_trace(key))
        # One correlation id across the parent and both workers.
        assert {rec["trace"] for rec in spans} == {trace_id}
        pids = {rec["pid"] for rec in spans}
        assert os.getpid() not in pids  # job/stage spans ran in workers
        # Every requested stage shows up as a span in every job's trace.
        names = [rec["name"] for rec in spans]
        for stage in LIGHT_STAGES:
            assert names.count(stage) == 2
        # Job spans parent to the campaign span recorded in the parent.
        job_spans = [rec for rec in spans if rec["name"] == "job"]
        assert len(job_spans) == 2
        assert len({rec["parent"] for rec in job_spans}) == 1
        rollups = report.trace["rollups"]
        assert rollups["campaign"]["count"] == 1
        assert rollups["job"]["count"] == 2
        # The report's describe() surfaces the trace line.
        assert f"trace {trace_id}" in report.describe()

    def test_disabled_campaign_leaves_no_traces(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        store = ResultStore(tmp_path)
        report = run_campaign(light_sweep(workers=1), store=store)
        assert report.all_ok()
        assert report.trace is None
        assert store.trace_keys() == []
        assert "trace" not in report.as_dict()

    def test_env_var_enables_tracing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        store = ResultStore(tmp_path)
        report = run_campaign(light_sweep(workers=1), store=store)
        assert report.trace is not None
        assert len(store.trace_keys()) == 2

    def test_campaign_folds_worker_metrics(self, tmp_path):
        registry = get_registry()
        before = registry.snapshot()
        report = run_campaign(light_sweep(workers=2), store=ResultStore(tmp_path))
        assert report.all_ok()
        delta = registry.delta_since(before)
        counters = {key: entry[2] for key, entry in delta["counters"].items()}
        assert counters["repro_campaign_runs_total"] == 1
        assert counters['repro_campaign_jobs_total{outcome="ok"}'] == 2
        # The derive stage ran in forked workers; its kernel checkpoint
        # counters folded home with the job results.  (Warm persistent
        # workers may serve entirely from the apply cache, so assert on
        # total cache traffic rather than misses specifically.)
        traffic = counters.get("repro_kernel_cache_hits_total", 0) + counters.get(
            "repro_kernel_cache_misses_total", 0
        )
        assert traffic > 0
        histograms = delta["histograms"]
        assert histograms['repro_stage_seconds{stage="derive"}'][2]["count"] == 2
        assert histograms["repro_job_seconds"][2]["count"] == 2

    def test_cached_jobs_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(light_sweep(workers=1), store=store)
        registry = get_registry()
        before = registry.snapshot()
        rerun = run_campaign(light_sweep(workers=1), store=store)
        assert len(rerun.cached()) == 2
        delta = registry.delta_since(before)
        counters = {key: entry[2] for key, entry in delta["counters"].items()}
        assert counters['repro_campaign_jobs_total{outcome="cached"}'] == 2


class TestStoreTraces:
    def test_trace_round_trip_and_summary_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        spans = [{"trace": "t-1", "id": "a-1", "name": "job", "seconds": 0.1}]
        store.put_trace("k" * 64, spans)
        assert store.trace_keys() == ["k" * 64]
        assert store.get_trace("k" * 64) == spans
        # Trace files stay out of the job-result namespace.
        assert store.keys() == []
        usage = store.disk_usage()
        assert set(usage) == {"jobs", "artifacts", "stages", "traces", "total"}
        assert usage["traces"] > 0
        assert usage["total"] >= usage["traces"]
        summary = store.summary()
        assert summary["entries"]["traces"] == 1
        assert summary["bytes"] == usage

    def test_get_trace_none_on_missing_or_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_trace("missing") is None
        store.trace_path("bad").write_text("{broken\n", encoding="utf-8")
        assert store.get_trace("bad") is None

    def test_clear_removes_traces(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_trace("k" * 64, [{"name": "x"}])
        store.clear()
        assert store.trace_keys() == []


# -- rendering ----------------------------------------------------------------------


class TestRendering:
    def _spans(self):
        tracer = Tracer()
        with tracer.activate():
            with span("job", arch=ARCH):
                with span("derive"):
                    pass
        return tracer.spans

    def test_waterfall_shape(self):
        text = render_waterfall(self._spans())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert "2 spans" in lines[0]
        assert any(line.lstrip().startswith("job") for line in lines)
        assert any(line.startswith("  derive") for line in lines)
        assert all("|" in line for line in lines[1:])

    def test_rollup_table(self):
        text = render_rollup(self._spans())
        assert text.splitlines()[0].split() == ["span", "count", "total", "s", "max", "s"]
        assert "derive" in text


# -- the service endpoint -----------------------------------------------------------


@pytest.mark.usefixtures("example_derivation")
class TestMetricsEndpoint:
    def test_v1_metrics_both_formats(self, tmp_path):
        from repro.service import ServiceError, start_service

        with start_service(store_root=str(tmp_path / "store"), workers=1) as handle:
            client = handle.client(timeout=60.0)
            submitted = client.submit(
                arch=ARCH, stages="properties,derive", workload_length=24
            )
            final = client.wait(submitted["job"]["id"], timeout=60.0)
            assert final["state"] == "done"

            text = client.metrics()
            assert "# TYPE repro_service_jobs_total counter" in text
            match = re.search(
                r'^repro_service_jobs_total\{state="done"\} (\d+)$', text, re.M
            )
            assert match and int(match.group(1)) >= 1
            assert re.search(r"^repro_service_submissions_total \d+$", text, re.M)
            assert re.search(r"^repro_service_queue_depth \d+$", text, re.M)
            assert re.search(
                r"^repro_service_queue_wait_seconds_count \d+$", text, re.M
            )
            # Kernel/store/campaign metrics flow through the same registry.
            assert re.search(r"^repro_campaign_jobs_total\{", text, re.M)

            samples = client.metrics(fmt="json")
            by_name = {}
            for entry in samples:
                by_name.setdefault(entry["name"], []).append(entry)
            done = [
                entry
                for entry in by_name["repro_service_jobs_total"]
                if entry["labels"] == {"state": "done"}
            ]
            assert done and done[0]["value"] >= 1
            assert by_name["repro_service_submissions_total"][0]["value"] >= 1

            with pytest.raises(ServiceError) as excinfo:
                client.metrics(fmt="xml")
            assert excinfo.value.status == 400


# -- the CLI ------------------------------------------------------------------------


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestTraceCli:
    @pytest.fixture
    def traced_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        code, output = run_cli(
            "campaign",
            "--no-family",
            "--arch",
            ARCH,
            "--stages",
            "properties,derive",
            "--workers",
            "1",
            "--store",
            store_dir,
            "--trace",
        )
        assert code == 0
        assert "trace t-" in output
        return store_dir

    def test_waterfall_by_key_prefix(self, traced_store):
        key = ResultStore(traced_store).trace_keys()[0]
        code, output = run_cli("trace", key[:10], "--store", traced_store)
        assert code == 0
        assert output.startswith("trace t-")
        assert "properties" in output and "derive" in output

    def test_summary_by_file_path(self, traced_store):
        key = ResultStore(traced_store).trace_keys()[0]
        path = str(ResultStore(traced_store).trace_path(key))
        code, output = run_cli("trace", path, "--summary")
        assert code == 0
        assert output.splitlines()[0].startswith("span")

    def test_missing_target_errors(self, traced_store, capsys):
        code, _ = run_cli("trace", "zzz-no-such", "--store", traced_store)
        assert code == 2
        assert "no trace matches" in capsys.readouterr().err


# -- the metric catalogue -----------------------------------------------------------


def test_help_keys_match_the_documented_catalogue():
    from repro.obs.metrics import HELP

    doc = Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    rows = re.findall(r"^\| `(repro_[^`]*)`", doc.read_text(), re.MULTILINE)
    documented = {re.sub(r"\{[^}]*\}", "", row) for row in rows}
    assert set(HELP) == documented


def test_every_kernel_counter_is_a_stats_field_with_help():
    from repro.bdd.manager import BddStats
    from repro.obs.metrics import HELP, KERNEL_COUNTERS

    fields = set(BddStats.__dataclass_fields__)
    for counter in KERNEL_COUNTERS:
        assert counter in fields
        assert f"repro_kernel_{counter}_total" in HELP
