"""End-to-end and unit tests for the verification service (repro.service).

The end-to-end tests run a real daemon on an ephemeral localhost port via
``start_service`` and talk to it over actual sockets with the stdlib
client — the same path ``repro submit`` takes.  Everything uses the tiny
``fam-`` family architectures so jobs stay short.  No test relies on a job
still running after some delay: a test that needs the single runner busy
holds its job on a ``threading.Event`` instead.
"""

import asyncio
import http.client
import io
import json
import threading
import time

import pytest

from repro.campaign import CampaignSpec, JobSpec, ResultStore
from repro.cli import main as cli_main
from repro.service import daemon
from repro.service import (
    JobState,
    ServiceClosing,
    ServiceError,
    SubmissionError,
    VerificationService,
    parse_submission,
    start_service,
)

#: A full six-stage job at the smallest workload and fault budget.
TINY = dict(workload_length=24, max_faults=2)
#: A properties+derive-only job on this architecture runs in ~10 ms.
LIGHT = dict(stages="properties,derive", **TINY)

ARCH = "fam-r2w1d3s1-bypass"
ARCH2 = "fam-r2w1d3s1-blocking"
ARCH3 = "fam-r2w1d4s1-bypass"


@pytest.fixture
def service(tmp_path):
    handle = start_service(store_root=str(tmp_path / "store"), workers=1)
    try:
        yield handle
    finally:
        handle.stop()


def submit_light(client, arch=ARCH, **extra):
    return client.submit(arch=arch, **{**LIGHT, **extra})


#: ``/v1/store`` stats key for each (kind, outcome) of repro_store_reads_total.
STORE_READ_STATS = {
    ("job", "hit"): "hits",
    ("job", "miss"): "misses",
    ("artifact", "hit"): "artifact_hits",
    ("artifact", "miss"): "artifact_misses",
    ("stage", "hit"): "stage_hits",
    ("stage", "miss"): "stage_misses",
}


def assert_store_channels_agree(client):
    """``/v1/metrics`` store-read samples equal ``/v1/store`` stats."""
    samples = client.metrics(fmt="json")
    stats = client.store()["store"]["stats"]
    reads = {
        (sample["labels"]["kind"], sample["labels"]["outcome"]): sample["value"]
        for sample in samples
        if sample["name"] == "repro_store_reads_total"
    }
    corrupt = sum(
        sample["value"] for sample in samples if sample["name"] == "repro_store_corrupt_total"
    )
    for labels, key in STORE_READ_STATS.items():
        assert reads.get(labels, 0) == stats[key], (labels, reads, stats)
    assert corrupt == stats["corrupt"]
    return stats


# -- submission parsing (no daemon needed) -----------------------------------------------


class TestParseSubmission:
    def test_arch_shorthand(self):
        spec, priority = parse_submission(
            {"arch": ARCH, "stages": "properties, derive", "workload_length": 24}
        )
        assert priority == 0
        assert [job.arch for job in spec.jobs] == [ARCH]
        assert spec.jobs[0].stages == ("properties", "derive")
        assert spec.jobs[0].workload_length == 24

    def test_stages_as_list(self):
        spec, _ = parse_submission({"arch": ARCH, "stages": ["derive"]})
        assert spec.jobs[0].stages == ("derive",)

    def test_job_shape(self):
        job = JobSpec(arch=ARCH, **TINY)
        spec, priority = parse_submission({"job": job.to_dict(), "priority": 3})
        assert priority == 3
        assert spec.jobs == (job,)

    def test_campaign_shape(self):
        campaign = CampaignSpec(
            name="two", jobs=(JobSpec(arch=ARCH), JobSpec(arch=ARCH2))
        )
        spec, _ = parse_submission({"campaign": campaign.to_dict()})
        assert spec.name == "two"
        assert len(spec.jobs) == 2

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([1, 2], "JSON object"),
            ({}, "exactly one of"),
            ({"arch": ARCH, "job": {"arch": ARCH}}, "exactly one of"),
            ({"arch": ARCH, "bogus": 1}, "unknown submission fields"),
            ({"arch": ARCH, "priority": True}, "priority must be an integer"),
            ({"arch": ARCH, "priority": "high"}, "priority must be an integer"),
            ({"arch": ""}, "non-empty string"),
            ({"arch": ARCH, "workload_length": "24"}, "must be an integer"),
            ({"arch": ARCH, "stages": 7}, "stages must be"),
            ({"job": {"arch": ARCH}, "stages": "derive"}, "only apply to 'arch'"),
        ],
    )
    def test_rejects(self, payload, fragment):
        with pytest.raises(SubmissionError, match=fragment):
            parse_submission(payload)

    def test_campaign_key_identifies_content(self):
        a, _ = parse_submission({"arch": ARCH, **TINY})
        b, _ = parse_submission({"arch": ARCH, **TINY, "priority": 5})
        c, _ = parse_submission({"arch": ARCH2, **TINY})
        assert a.campaign_key() == b.campaign_key()  # priority is not content
        assert a.campaign_key() != c.campaign_key()


# -- end-to-end over a real socket -------------------------------------------------------


class TestEndToEnd:
    def test_submit_stream_result(self, service):
        client = service.client()
        submitted = submit_light(client)
        job = submitted["job"]
        assert job["id"].startswith("job-")
        assert submitted["coalesced"] is False

        events = []
        final = client.wait(job["id"], timeout=60, on_event=events.append)
        assert final["state"] == JobState.DONE
        assert final["ok"] is True
        assert final["report"]["passed"] == final["report"]["total"] == 1

        kinds = [event["kind"] for event in events]
        assert kinds[0] == "state" and kinds[-1] == "state"
        assert "result" in kinds
        assert [event["seq"] for event in events] == list(range(len(events)))
        result = next(event for event in events if event["kind"] == "result")
        assert result["arch"] == ARCH and result["ok"] is True
        done = events[-1]
        assert done["state"] == JobState.DONE and done["passed"] == 1

    def test_cached_resubmit_is_immediate(self, service):
        client = service.client()
        first = submit_light(client)
        client.wait(first["job"]["id"], timeout=60)

        start = time.monotonic()
        again = submit_light(client)
        elapsed = time.monotonic() - start
        job = again["job"]
        # Terminal in the submit response itself: no queueing happened.
        assert job["state"] == JobState.DONE
        assert job["from_cache"] is True and job["ok"] is True
        assert elapsed < 1.0  # measured ~3 ms; generous bound for CI noise

    def test_reseeded_resubmit_replays_structural_stages(self, service):
        client = service.client()
        first = client.submit(arch=ARCH, **TINY)
        client.wait(first["job"]["id"], timeout=120)

        again = client.submit(arch=ARCH, workload_seed=5, **TINY)
        assert again["job"]["from_cache"] is False  # a new job key
        final = client.wait(again["job"]["id"], timeout=120)
        assert final["state"] == JobState.DONE and final["ok"] is True
        stages = final["report"]["jobs"][0]["stages"]
        replayed = [s["name"] for s in stages if s["details"].get("from_store")]
        executed = [s["name"] for s in stages if not s["details"].get("from_store")]
        assert replayed == ["properties", "derive", "maximality", "obligations"]
        assert executed == ["faults", "analysis"]

    def test_campaign_submission(self, service):
        client = service.client()
        campaign = CampaignSpec(
            name="pair",
            jobs=(JobSpec(arch=ARCH, **TINY), JobSpec(arch=ARCH2, **TINY)),
        )
        submitted = client.submit(campaign=campaign.to_dict())
        final = client.wait(submitted["job"]["id"], timeout=120)
        assert final["state"] == JobState.DONE and final["ok"] is True
        assert final["report"]["total"] == 2
        assert sorted(r["job"]["arch"] for r in final["report"]["jobs"]) == sorted(
            [ARCH, ARCH2]
        )

    def test_cancel_queued_job(self, service, monkeypatch):
        # Hold the blocker on the single runner until the cancel has been
        # checked, so the second job is still queued when it arrives.
        started, release = threading.Event(), threading.Event()
        real_run_campaign = daemon.run_campaign

        def held_run_campaign(spec, **kwargs):
            if any(job.arch == ARCH for job in spec.jobs):
                started.set()
                release.wait(timeout=60)
            return real_run_campaign(spec, **kwargs)

        monkeypatch.setattr(daemon, "run_campaign", held_run_campaign)
        client = service.client()
        blocker = client.submit(arch=ARCH, **TINY)
        try:
            assert started.wait(timeout=30)
            queued = submit_light(client, arch=ARCH2)
            response = client.cancel(queued["job"]["id"])
            assert response["cancelled"] is True
            record = client.job(queued["job"]["id"])
            assert record["state"] == JobState.CANCELLED
            # Cancelling a terminal job is a no-op, not an error.
            assert client.cancel(queued["job"]["id"])["cancelled"] is False
        finally:
            release.set()
        final = client.wait(blocker["job"]["id"], timeout=120)
        assert final["state"] == JobState.DONE

    def test_cancel_mid_campaign(self, service):
        client = service.client()
        campaign = CampaignSpec(
            name="cancel-me",
            jobs=(
                JobSpec(arch=ARCH, **LIGHT_JOBS[0]),
                JobSpec(arch=ARCH2, **TINY),
                JobSpec(arch=ARCH3, **TINY),
                JobSpec(arch="fam-r2w1d4s1-blocking", **TINY),
            ),
        )
        submitted = client.submit(campaign=campaign.to_dict())
        job_id = submitted["job"]["id"]
        results = 0
        for event in client.stream(job_id):
            if event["kind"] == "result":
                results += 1
                client.cancel(job_id)  # first architecture done: stop the rest
        final = client.job(job_id)
        assert final["state"] == JobState.CANCELLED
        assert final["ok"] is None
        assert 1 <= results < 4
        assert "cancelled" in final["error"]

    def test_concurrent_clients_share_one_execution(self, service):
        finals, responses, errors = [], [], []
        barrier = threading.Barrier(2)

        def run():
            try:
                client = service.client()
                barrier.wait(timeout=10)
                submitted = client.submit(arch=ARCH, **TINY)
                responses.append(submitted)
                finals.append(client.wait(submitted["job"]["id"], timeout=120))
            except Exception as exc:  # surfaced via the errors list
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(finals) == 2
        for final in finals:
            assert final["state"] == JobState.DONE and final["ok"] is True
        # The two submissions either coalesced onto one job or the second
        # was answered from the cache — never two executions of the work.
        ids = {response["job"]["id"] for response in responses}
        if len(ids) == 2:
            assert any(r["job"]["from_cache"] for r in responses)
        else:
            assert any(r["coalesced"] for r in responses)

    def test_event_stream_cursor_resumes(self, service):
        client = service.client()
        job_id = submit_light(client)["job"]["id"]
        client.wait(job_id, timeout=60)
        full = list(client.stream(job_id))
        tail = list(client.stream(job_id, since=2))
        assert [e["seq"] for e in tail] == [e["seq"] for e in full[2:]]

    def test_priority_orders_the_queue(self, service):
        client = service.client()
        blocker = client.submit(
            campaign=CampaignSpec(
                name="blocker",
                jobs=(JobSpec(arch=ARCH, **TINY), JobSpec(arch=ARCH2, **TINY)),
            ).to_dict()
        )
        low = submit_light(client, arch=ARCH3, priority=0)
        high = submit_light(client, arch="fam-r2w1d4s1-blocking", priority=5)
        for response in (blocker, low, high):
            client.wait(response["job"]["id"], timeout=120)
        low_record = client.job(low["job"]["id"])
        high_record = client.job(high["job"]["id"])
        assert high_record["started_at"] < low_record["started_at"]


LIGHT_JOBS = [dict(stages=("properties", "derive"), **TINY)]


# -- plain endpoints and error paths -----------------------------------------------------


class TestEndpoints:
    def test_health(self, service):
        health = service.client().health()
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert set(health["jobs"]) == set(JobState.ALL)

    def test_archs(self, service):
        archs = service.client().archs()
        assert archs and all(isinstance(name, str) for name in archs)
        assert "dac2002-example" in archs

    def test_store_telemetry(self, service, tmp_path):
        client = service.client()
        before = client.store()
        assert before["configured"] is True
        assert before["store"]["entries"]["jobs"] == 0

        job_id = submit_light(client)["job"]["id"]
        client.wait(job_id, timeout=60)
        submit_light(client)  # cache hit

        after = client.store()["store"]
        assert after["entries"]["jobs"] == 1
        assert after["stats"]["hits"] >= 1
        # The probe thread's cached answer reaches the registry too.
        assert_store_channels_agree(client)

        # Pool workers' store traffic reaches both channels alike.
        with start_service(store_root=str(tmp_path / "pool-store"), workers=2) as pool:
            pool_client = pool.client()
            misses_before = assert_store_channels_agree(pool_client)["misses"]
            campaign = CampaignSpec(
                name="pool-pair",
                jobs=(JobSpec(arch=ARCH2, **TINY), JobSpec(arch=ARCH3, **TINY)),
            )
            submitted = pool_client.submit(campaign=campaign.to_dict())
            final = pool_client.wait(submitted["job"]["id"], timeout=120)
            assert final["state"] == JobState.DONE and final["ok"] is True
            assert final["report"]["cache"]["misses"] == 2
            stats = assert_store_channels_agree(pool_client)
            assert stats["misses"] == misses_before + 2

    def test_store_disabled(self, tmp_path):
        with start_service(store_root=None, workers=1) as handle:
            response = handle.client().store()
            assert response == {"configured": False, "store": None}

    def test_jobs_listing_and_state_filter(self, service):
        client = service.client()
        job_id = submit_light(client)["job"]["id"]
        client.wait(job_id, timeout=60)
        done = client.jobs(state=JobState.DONE)
        assert [record["id"] for record in done] == [job_id]
        assert client.jobs(state=JobState.FAILED) == []
        assert done[0]["archs"] == [ARCH]

    def test_unknown_state_filter_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client().jobs(state="bogus")
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client().job("job-999999")
        assert excinfo.value.status == 404 and excinfo.value.code == "not_found"

    def test_dropped_finished_job_is_404(self, service, monkeypatch):
        monkeypatch.setattr(daemon, "_RETAINED_FINISHED_JOBS", 1)
        client = service.client()
        first = submit_light(client)["job"]["id"]
        client.wait(first, timeout=60)
        again = submit_light(client)["job"]
        assert again["from_cache"] and again["id"] != first
        # The older finished record is gone; its result is still stored.
        with pytest.raises(ServiceError) as excinfo:
            client.job(first)
        assert excinfo.value.status == 404
        assert [record["id"] for record in client.jobs()] == [again["id"]]

    def test_unknown_architecture_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client().submit(arch="no-such-arch")
        assert excinfo.value.status == 400
        assert "unknown architecture" in excinfo.value.message

    def test_unknown_path_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client()._request("GET", "/v2/health")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client()._request("DELETE", "/v1/health")
        assert excinfo.value.status == 405

    def test_malformed_json_body_is_400(self, service):
        connection = http.client.HTTPConnection(service.host, service.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/jobs",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
        finally:
            connection.close()


# -- CLI verbs against a live daemon -----------------------------------------------------


class TestServiceCli:
    def test_submit_follows_to_done(self, service):
        out = io.StringIO()
        rc = cli_main(
            [
                "submit",
                "--port",
                str(service.port),
                "--arch",
                ARCH,
                "--stages",
                "properties,derive",
                "--length",
                "24",
                "--max-faults",
                "2",
            ],
            out,
        )
        text = out.getvalue()
        assert rc == 0
        assert "state=queued" in text or "state=done" in text
        assert f"[{ARCH}] ok" in text
        assert "done" in text

    def test_submit_no_follow_then_jobs_table(self, service):
        out = io.StringIO()
        assert (
            cli_main(
                [
                    "submit",
                    "--port",
                    str(service.port),
                    "--arch",
                    ARCH,
                    "--stages",
                    "properties,derive",
                    "--no-follow",
                ],
                out,
            )
            == 0
        )
        job_id = out.getvalue().split()[0]
        service.client().wait(job_id, timeout=60)

        table = io.StringIO()
        assert cli_main(["jobs", "--port", str(service.port)], table) == 0
        assert job_id in table.getvalue()

        detail = io.StringIO()
        assert (
            cli_main(["jobs", "--port", str(service.port), "--id", job_id], detail)
            == 0
        )
        record = json.loads(detail.getvalue())
        assert record["id"] == job_id and record["state"] == JobState.DONE

        stats = io.StringIO()
        assert (
            cli_main(["jobs", "--port", str(service.port), "--store-stats"], stats)
            == 0
        )
        assert json.loads(stats.getvalue())["configured"] is True

    def test_submit_unreachable_daemon_fails_cleanly(self, capsys):
        out = io.StringIO()
        rc = cli_main(
            ["submit", "--port", "1", "--arch", ARCH, "--no-follow"], out
        )
        assert rc == 2  # CLI usage/infrastructure error, not a verdict
        assert "unreachable" in capsys.readouterr().err


# -- direct asyncio embedding and shutdown -----------------------------------------------


class TestLifecycle:
    def test_direct_asyncio_use(self, tmp_path):
        async def scenario():
            service = VerificationService(
                store=ResultStore(tmp_path / "store"), workers=1
            )
            await service.start()
            try:
                record, coalesced = await service.submit({"arch": ARCH, **LIGHT})
                assert coalesced is False
                kinds = []
                async for event in service.stream(record.id):
                    kinds.append(event.kind)
                assert record.terminal and record.ok is True
                assert kinds[-1] == "state"

                service._closing = True
                with pytest.raises(ServiceClosing):
                    await service.submit({"arch": ARCH, **LIGHT})
            finally:
                await service.close()

        asyncio.run(scenario())

    def test_family_names_resolve_once(self, tmp_path, monkeypatch):
        calls = []
        real_validate = daemon._validate_archs

        def counting_validate(spec):
            calls.append([job.arch for job in spec.jobs])
            real_validate(spec)

        monkeypatch.setattr(daemon, "_validate_archs", counting_validate)

        async def scenario():
            service = VerificationService(
                store=ResultStore(tmp_path / "store"), workers=1
            )
            await service.start()
            try:
                first, _ = await service.submit({"arch": ARCH, **LIGHT})
                async for _ in service.stream(first.id):
                    pass
                again, _ = await service.submit({"arch": ARCH, **LIGHT})
                assert again.terminal and again.from_cache
                # A name that failed to resolve is tried again every time.
                for _ in range(2):
                    with pytest.raises(SubmissionError):
                        await service.submit({"arch": "fam-r0w1d3s1-bypass"})
            finally:
                await service.close()

        asyncio.run(scenario())
        assert calls == [[ARCH], ["fam-r0w1d3s1-bypass"], ["fam-r0w1d3s1-bypass"]]

    def test_finished_records_beyond_the_cap_are_dropped_oldest_first(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(daemon, "_RETAINED_FINISHED_JOBS", 2)
        release = threading.Event()
        real_run = daemon.run_campaign

        def held_run(spec, **kwargs):
            if spec.jobs[0].arch == ARCH2:
                release.wait(60)
            return real_run(spec, **kwargs)

        monkeypatch.setattr(daemon, "run_campaign", held_run)

        async def scenario():
            service = VerificationService(
                store=ResultStore(tmp_path / "store"), workers=1
            )
            await service.start()
            try:
                first, _ = await service.submit({"arch": ARCH, **LIGHT})
                async for _ in service.stream(first.id):
                    pass
                held, _ = await service.submit({"arch": ARCH2, **LIGHT})
                cached = []
                for _ in range(3):
                    record, _ = await service.submit({"arch": ARCH, **LIGHT})
                    assert record.terminal and record.from_cache
                    cached.append(record.id)
                # Four finished records, two kept; the unfinished one stays.
                assert not held.terminal
                for dropped in (first.id, cached[0]):
                    with pytest.raises(KeyError):
                        service.job(dropped)
                assert [r.id for r in service.jobs()] == [held.id, *cached[1:]]
                assert service._active_key == {held.key: held.id}

                release.set()
                async for _ in service.stream(held.id):
                    pass
                assert held.ok is True
                assert [r.id for r in service.jobs()] == [held.id, cached[2]]
                assert service._active_key == {}
                assert sum(service.state_counts().values()) == 2
            finally:
                release.set()
                await service.close()

        asyncio.run(scenario())

    def test_graceful_stop_drains_running_job(self, tmp_path):
        handle = start_service(store_root=str(tmp_path / "store"), workers=1)
        client = handle.client()
        job_id = client.submit(arch=ARCH, **TINY)["job"]["id"]
        deadline = time.monotonic() + 10
        while (
            client.job(job_id)["state"] == JobState.QUEUED
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        handle.stop(drain=True)
        # The daemon is gone, but the job it drained landed in the store.
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "unreachable"
        store = ResultStore(tmp_path / "store")
        assert store.get(JobSpec(arch=ARCH, **TINY)) is not None

    def test_stop_without_drain_cancels_queue(self, tmp_path):
        handle = start_service(store_root=str(tmp_path / "store"), workers=1)
        client = handle.client()
        client.submit(arch=ARCH, **TINY)
        queued = client.submit(arch=ARCH2, **TINY)["job"]["id"]
        handle.stop(drain=False)
        # Stop is idempotent.
        handle.stop()
        assert queued  # daemon exited despite a non-empty queue
