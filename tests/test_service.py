"""Tests for :mod:`repro.service` — HTTP job server over the engine.

Three layers, three contracts:

- :class:`JobQueue` — content-addressed ids, disk-mirrored state, and
  crash recovery (``running`` jobs found on boot demote to ``queued``).
- :class:`JobExecutor` — jobs run through :func:`repro.api.run_campaign`
  against the shared store; cancel is cooperative; shutdown re-queues
  (not cancels) interrupted jobs so a restarted server resumes with
  zero recomputation.
- The HTTP surface — submissions aggregate bit-identically to driving
  :class:`CampaignRunner` directly, progress/stream/cancel behave, and
  validation errors come back as 400s, unknown jobs as 404s.
"""

import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro import api
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.segstore import SegmentedResultStore, compact_store
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.exceptions import CampaignCancelled, ConfigurationError, DRSError
from repro.scenarios.runner import replication_seed, run_replication
from repro.service import (
    CampaignService,
    JobExecutor,
    JobQueue,
    JobRecord,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    campaign_from_submission,
    job_id_for,
    job_progress,
)
from repro.service.server import _Handler

BASE = {
    "workload": "synthetic",
    "workload_params": {"total_cpu": 0.03, "arrival_rate": 20.0},
    "policy": "none",
    "initial_allocation": "10:10:10",
    "duration": 40.0,
    "warmup": 5.0,
    "replications": 2,
    "seed": 17,
}


def campaign_dict(name="svc-cmp", *, duration=40.0, replications=2):
    return {
        "name": name,
        "base": dict(BASE, duration=duration, replications=replications),
        "axes": [
            {
                "name": "rate",
                "field": "workload_params.arrival_rate",
                "values": [20.0, 30.0],
            }
        ],
    }


def spec(name="svc-cmp", **kwargs):
    return CampaignSpec.from_dict(campaign_dict(name, **kwargs))


def start_service(store, job_workers=1):
    """A running service on an ephemeral port (caller shuts it down)."""
    svc = CampaignService(
        ServiceConfig(
            store=store,
            port=0,
            job_workers=job_workers,
            campaign_workers=1,
            poll_interval=0.02,
        )
    )
    svc.start()
    return svc


@pytest.fixture
def service(tmp_path):
    """A running service on an ephemeral port, shut down afterwards."""
    svc = start_service(tmp_path / "store")
    try:
        yield svc
    finally:
        svc.shutdown()


@pytest.fixture
def segmented_root(tmp_path):
    """A store root in the segmented layout (``segments/`` exists)."""
    root = tmp_path / "store"
    (root / "segments").mkdir(parents=True)
    return root


class TestJobIds:
    def test_content_addressed(self):
        assert job_id_for(spec()) == job_id_for(spec())
        assert job_id_for(spec()) != job_id_for(spec("other-name"))

    def test_key_order_is_canonicalised(self):
        raw = campaign_dict()
        reordered = json.loads(json.dumps(raw, sort_keys=True))
        assert job_id_for(CampaignSpec.from_dict(raw)) == job_id_for(
            CampaignSpec.from_dict(reordered)
        )


class TestSubmissionShapes:
    def test_bare_campaign(self):
        campaign, workers = campaign_from_submission(campaign_dict())
        assert isinstance(campaign, CampaignSpec) and workers is None

    def test_envelope_with_workers(self):
        campaign, workers = campaign_from_submission(
            {"campaign": campaign_dict(), "workers": 3}
        )
        assert len(campaign.expand()) == 2 and workers == 3

    def test_scenario_becomes_single_cell_campaign(self):
        campaign, _ = campaign_from_submission(
            {"scenario": dict(BASE, name="solo")}
        )
        cells = campaign.expand()
        assert campaign.name == "solo" and len(cells) == 1

    def test_unrecognised_shape_rejected(self):
        with pytest.raises(DRSError, match="submission must be"):
            campaign_from_submission({"what": "ever"})

    def test_bad_workers_rejected(self):
        with pytest.raises(Exception, match="workers must be >= 1"):
            campaign_from_submission(
                {"campaign": campaign_dict(), "workers": 0}
            )


class TestJobQueue:
    def test_submit_persists_and_reloads(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, enqueued = queue.submit(spec())
        assert enqueued and job.state == "queued"
        reloaded = JobQueue(tmp_path)
        assert reloaded.get(job.id).campaign == job.campaign

    def test_live_job_not_duplicated(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(spec())
        again, enqueued = queue.submit(spec())
        assert again is first and not enqueued

    def test_terminal_job_reenqueued_same_id(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec())
        queue.claim_next()
        queue.finish(job.id, "done", result={"computed": 4})
        again, enqueued = queue.submit(spec())
        assert enqueued and again.id == job.id and again.runs == 2
        assert again.state == "queued" and again.result is None

    def test_running_demoted_to_queued_on_boot(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec())
        assert queue.claim_next() is job and job.state == "running"
        # Simulate a hard kill: a fresh queue over the same directory.
        rebooted = JobQueue(tmp_path)
        assert rebooted.get(job.id).state == "queued"

    def test_cancel_queued_is_immediate(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec())
        cancelled = queue.cancel(job.id)
        assert cancelled.state == "cancelled"
        assert cancelled.error == "cancelled before starting"

    def test_cancel_unknown_returns_none(self, tmp_path):
        assert JobQueue(tmp_path).cancel("nope") is None

    def test_finish_requires_terminal_state(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(spec())
        with pytest.raises(ConfigurationError, match="not a terminal"):
            queue.finish(job.id, "running")

    def test_torn_record_skipped(self, tmp_path):
        (tmp_path / "deadbeef.json").write_text("{not json")
        queue = JobQueue(tmp_path)
        assert queue.list() == []


class TestExecutor:
    def run_executor(self, tmp_path, campaign, **kwargs):
        queue = JobQueue(tmp_path / "jobs")
        executor = JobExecutor(
            queue, tmp_path / "store", campaign_workers=1, **kwargs
        )
        executor.start()
        try:
            job, _ = queue.submit(campaign)
            executor.notify()
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            return queue, job
        finally:
            executor.shutdown()

    def test_job_runs_to_done(self, tmp_path):
        queue, job = self.run_executor(tmp_path, spec())
        assert job.state == "done"
        assert job.result["computed"] == 4 and job.result["reused"] == 0
        assert {c["path"] for c in job.result["cells"]} == {"simulated"}

    def test_resubmit_computes_nothing(self, tmp_path):
        self.run_executor(tmp_path, spec())
        _, job = self.run_executor(tmp_path, spec())
        assert job.state == "done"
        assert job.result["computed"] == 0 and job.result["reused"] == 4

    def test_invalid_job_fails_with_error(self, tmp_path):
        bad = spec()
        # An unloadable campaign dict (validated at run time).
        queue = JobQueue(tmp_path / "jobs")
        job, _ = queue.submit(bad)
        job.campaign = dict(job.campaign, base=dict(BASE, workload="nope"))
        executor = JobExecutor(queue, tmp_path / "store", campaign_workers=1)
        executor.start()
        try:
            executor.notify()
            deadline = time.monotonic() + 30
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            executor.shutdown()
        assert job.state == "failed" and "workload" in job.error

    def test_job_workers_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="job_workers"):
            JobExecutor(JobQueue(tmp_path), tmp_path, job_workers=0)


class TestCancellation:
    def test_user_cancel_mid_run(self, tmp_path):
        """Cancelling a running job stops it cooperatively; completed
        replications stay persisted for the next run."""
        queue = JobQueue(tmp_path / "jobs")
        executor = JobExecutor(
            queue, tmp_path / "store", campaign_workers=1
        )
        executor.start()
        slow = spec(duration=1200.0, replications=3)
        try:
            job, _ = queue.submit(slow)
            executor.notify()
            deadline = time.monotonic() + 30
            while job.state != "running" and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.4)  # let at least one replication land
            queue.cancel(job.id)
            deadline = time.monotonic() + 30
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            executor.shutdown()
        assert job.state == "cancelled"
        assert job.error == "cancelled by request"

    def test_shutdown_requeues_for_resume(self, tmp_path):
        """Kill the server mid-run: the job re-queues, and the next
        server finishes it computing only the leftover replications."""
        slow = spec(duration=1200.0, replications=2)
        queue = JobQueue(tmp_path / "jobs")
        executor = JobExecutor(
            queue, tmp_path / "store", campaign_workers=1
        )
        executor.start()
        job, _ = queue.submit(slow)
        executor.notify()
        deadline = time.monotonic() + 30
        while job.state != "running" and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.7)  # partial progress: some replications stored
        executor.shutdown()  # graceful interrupt, not a user cancel
        assert job.state == "queued", "interrupted job must re-queue"
        stored_before = job_progress(
            slow, api.open_store(tmp_path / "store")
        )["stored"]

        # "Restart" the server over the same directories.
        queue2 = JobQueue(tmp_path / "jobs")
        resumed = queue2.get(job.id)
        assert resumed.state == "queued"
        executor2 = JobExecutor(
            queue2, tmp_path / "store", campaign_workers=1
        )
        executor2.start()
        try:
            executor2.notify()
            deadline = time.monotonic() + 120
            while not resumed.terminal and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            executor2.shutdown()
        assert resumed.state == "done"
        total = 2 * 2  # cells * replications
        assert resumed.result["computed"] == total - stored_before
        assert resumed.result["reused"] == stored_before

    def test_runner_raises_campaign_cancelled(self, tmp_path):
        """The engine-level hook: a pre-set event aborts before any
        replication is computed."""
        event = threading.Event()
        event.set()
        with pytest.raises(CampaignCancelled, match="cancelled"):
            api.run_campaign(
                campaign_dict(), store=tmp_path, workers=1, cancel=event
            )
        progress = job_progress(spec(), api.open_store(tmp_path))
        assert progress["stored"] == 0


def _gut_record(store, spec_hash, seed):
    """Shape-corrupt one stored record: it loads, but no longer
    rehydrates into a ReplicationResult."""
    path = store.record_path(spec_hash, seed)
    record = json.loads(path.read_text())
    record["result"] = {"index": 0}
    path.write_text(json.dumps(record))


class TestProgress:
    """``job_progress`` reads the campaign planner, so "stored" means
    exactly what a resume would reuse."""

    def test_unusable_records_are_missing(self, tmp_path):
        """A simulate job must not count an analytic-path record or a
        shape-corrupted one as stored: the run recomputes both."""
        campaign = CampaignSpec.from_dict(
            {"name": "progress", "base": dict(BASE, duration=5.0, warmup=1.0)}
        )
        cell = campaign.expand()[0]
        seeds = [replication_seed(cell.spec.seed, i) for i in range(2)]
        store = ResultStore(tmp_path)
        for index, seed in enumerate(seeds):
            store.put(
                cell.spec,
                cell.spec_hash,
                seed,
                run_replication(cell.spec, index),
                path="analytic" if index == 0 else "simulated",
            )
        _gut_record(store, cell.spec_hash, seeds[1])

        progress = job_progress(campaign, store)
        plan = api.plan(campaign, store=store)
        assert plan.to_compute == 2
        assert progress["stored"] == plan.cached == 0
        assert progress["cells"] == [
            {
                "cell": "progress",
                "replications": 2,
                "simulated": 0,
                "analytic": 0,
                "missing": 2,
            }
        ]
        assert api.run_campaign(campaign, store=store).computed == 2

    def test_counts_split_by_decided_path(self, tmp_path):
        from repro.campaigns.hybrid import AnalyticCellEvaluator
        from repro.fidelity.cases import build_case, fidelity_campaign

        cases = [
            build_case("single", 0.7, 1, 1.0, "shared", None,
                       replications=2, target_tuples=200),
            build_case("loop", 0.5, 1, 1.0, "shared", None,
                       replications=2, target_tuples=200),
        ]
        campaign = dataclasses.replace(
            fidelity_campaign("progress", cases=cases), evaluation="hybrid"
        )
        evaluator = AnalyticCellEvaluator.default()
        store = ResultStore(tmp_path)
        before = job_progress(campaign, store, evaluator)
        assert (before["total"], before["stored"]) == (4, 0)
        api.run_campaign(campaign, store=store, evaluator=evaluator)

        progress = job_progress(campaign, store, evaluator)
        plan = api.plan(campaign, store=store, evaluator=evaluator)
        assert progress["stored"] == plan.cached == 4
        assert [(c["analytic"], c["simulated"]) for c in progress["cells"]] == [
            (2, 0),
            (0, 2),
        ]

    def test_analytic_job_with_uncertifiable_cell_reports_progress(
        self, service
    ):
        """An ``analytic`` job whose cell the envelope rejects fails to
        run, yet its status still answers with progress."""
        client = ServiceClient(service.url)
        raw = dict(campaign_dict("analytic-cmp"), evaluation="analytic")
        final = client.wait(client.submit(campaign=raw)["id"], timeout=60)
        assert final["state"] == "failed"
        assert "cannot be answered analytically" in final["error"]
        progress = final["progress"]
        assert (progress["total"], progress["stored"]) == (4, 0)
        assert all(c["missing"] == 2 for c in progress["cells"])


def _raw_post_jobs(service, content_length: str):
    """POST /jobs with a verbatim Content-Length header over a bare
    socket; returns ``(status, json_body)``.  The socket timeout turns
    a server that blocks on the body into a test failure, not a hang."""
    request = (
        "POST /jobs HTTP/1.1\r\n"
        f"Host: {service.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
        "{}"
    ).encode("ascii")
    with socket.create_connection(
        (service.host, service.port), timeout=5.0
    ) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


class TestHTTPSurface:
    def test_health_and_empty_listing(self, service):
        client = ServiceClient(service.url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"]["queued"] == 0
        assert client.jobs() == []

    def test_submit_poll_aggregate_roundtrip(self, service, tmp_path):
        client = ServiceClient(service.url)
        raw = campaign_dict()
        job = client.submit(campaign=raw)
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["result"]["computed"] == 4

        status = client.job(job["id"])
        progress = status["progress"]
        assert progress["total"] == progress["stored"] == 4
        assert all(c["missing"] == 0 for c in progress["cells"])

        # Bit-identical to driving CampaignRunner directly on a
        # fresh store with the same spec — the acceptance criterion.
        direct_store = ResultStore(tmp_path / "direct")
        CampaignRunner(direct_store, max_workers=1).run(
            CampaignSpec.from_dict(raw)
        )
        from repro.campaigns.aggregate import aggregate_from_store

        direct = aggregate_from_store(
            CampaignSpec.from_dict(raw), direct_store
        )
        via_http = client.aggregates(job["id"])
        assert json.dumps(via_http, sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )

    def test_stream_yields_snapshots_until_done(self, service):
        client = ServiceClient(service.url)
        job = client.submit(campaign=campaign_dict("stream-cmp"))
        lines = list(client.stream(job["id"]))
        assert lines, "stream must yield at least one snapshot"
        assert lines[-1]["state"] == "done"
        assert [line["seq"] for line in lines] == list(range(len(lines)))
        final = lines[-1]["aggregate"]
        assert len(final["cells"]) == 2

    def test_resubmission_reuses_everything(self, service):
        client = ServiceClient(service.url)
        raw = campaign_dict("warm-cmp")
        first = client.wait(client.submit(campaign=raw)["id"], timeout=120)
        second = client.wait(client.submit(campaign=raw)["id"], timeout=120)
        assert second["id"] == first["id"] and second["runs"] == 2
        assert second["result"]["computed"] == 0
        assert second["result"]["reused"] == 4

    def test_invalid_submission_is_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="unknown axis keys") as info:
            client.submit(
                campaign={
                    **campaign_dict(),
                    "axes": [{"parameter": "x", "values": [1]}],
                }
            )
        assert info.value.status == 400

    def test_unknown_job_is_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="unknown job") as info:
            client.job("feedfacecafebeef")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            client.cancel("feedfacecafebeef")
        assert info.value.status == 404

    def test_cancel_running_job_over_http(self, service):
        client = ServiceClient(service.url)
        job = client.submit(
            campaign=campaign_dict(
                "slow-cmp", duration=1200.0, replications=4
            )
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.job(job["id"])["state"] == "running":
                break
            time.sleep(0.02)
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"

    def test_client_submit_argument_validation(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit()
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit(campaign={}, scenario={})

    @pytest.mark.parametrize("content_length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service, content_length):
        status, body = _raw_post_jobs(service, content_length)
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_huge_content_length_is_413(self, service):
        """A body above the cap is refused before any of it is read,
        and the server keeps serving."""
        status, body = _raw_post_jobs(service, "100000000000")
        assert status == 413
        assert "exceeds" in body["error"]
        assert ServiceClient(service.url).health()["status"] == "ok"


    def test_stalled_body_times_out_with_408(self, service, monkeypatch):
        """A client that announces a body and stalls gets a 408 once the
        read timeout passes, and the server keeps serving."""
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        status, body = _raw_post_jobs(service, "100")
        assert status == 408
        assert "not received" in body["error"]
        assert ServiceClient(service.url).health()["status"] == "ok"


class TestServiceStore:
    """``repro serve`` holds one store for its lifetime and refreshes
    it per request instead of reopening it."""

    def test_reuses_records_another_writer_stored_later(self, segmented_root):
        svc = start_service(segmented_root)
        try:
            raw = campaign_dict("other-writer")
            # A second process's writer, after the server opened its store.
            api.run_campaign(raw, store=segmented_root, workers=1)
            client = ServiceClient(svc.url)
            progress = svc.job_status(
                JobRecord(id="probe", campaign=raw)
            )["progress"]
            assert progress["stored"] == progress["total"] == 4
            final = client.wait(client.submit(campaign=raw)["id"], timeout=120)
        finally:
            svc.shutdown()
        assert final["state"] == "done"
        assert final["result"]["computed"] == 0
        assert final["result"]["reused"] == 4
        assert final["progress"]["stored"] == 4
        segments = sorted(p.name for p in (segmented_root / "segments").iterdir())
        assert segments == ["main.ndjson"]  # the service wrote nothing

    def test_concurrent_jobs_append_whole_lines_to_one_segment(
        self, segmented_root
    ):
        svc = start_service(segmented_root, job_workers=2)
        try:
            client = ServiceClient(svc.url)
            ids = [
                client.submit(campaign=campaign_dict(name, duration=duration))[
                    "id"
                ]
                for name, duration in (("a", 40.0), ("b", 41.0))
            ]
            finals = [client.wait(job_id, timeout=120) for job_id in ids]
        finally:
            svc.shutdown()
        assert [f["result"]["computed"] for f in finals] == [4, 4]
        segment = segmented_root / "segments" / f"serve-{os.getpid()}.ndjson"
        assert sorted((segmented_root / "segments").iterdir()) == [segment]
        text = segment.read_text()
        assert text.endswith("\n")
        lines = [json.loads(line) for line in text.splitlines()]
        kinds = [line.get("kind", "record") for line in lines]
        assert kinds.count("record") == 8 and kinds.count("spec") == 4

    def test_compacting_a_classic_root_under_a_live_server(self, tmp_path):
        root = tmp_path / "store"
        svc = start_service(root)
        try:
            client = ServiceClient(svc.url)
            raw = campaign_dict("compact-live")
            first = client.wait(client.submit(campaign=raw)["id"], timeout=120)
            assert first["result"]["computed"] == 4
            assert type(svc.executor.store()) is ResultStore
            assert compact_store(root)["migrated"] == 4
            assert isinstance(svc.executor.store(), SegmentedResultStore)
            aggregate = client.aggregates(first["id"])
            assert all(c["missing"] == 0 for c in aggregate["cells"])
            again = client.wait(client.submit(campaign=raw)["id"], timeout=120)
        finally:
            svc.shutdown()
        assert again["result"]["computed"] == 0
