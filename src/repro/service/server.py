"""Dependency-light HTTP front end: campaigns in, aggregates out.

:class:`CampaignService` wires the three service pieces together — a
:class:`~repro.service.jobs.JobQueue` persisted under the store, a
:class:`~repro.service.jobs.JobExecutor` worker pool, and a threaded
stdlib HTTP server — over one shared result store.  Because every job
executes through :func:`repro.api.run_campaign` against that store, a
campaign submitted over HTTP produces results bit-identical to the
same spec run through :class:`~repro.campaigns.runner.CampaignRunner`
directly, and concurrent tenants share completed replications through
content addressing.

Endpoints (all JSON)::

    GET    /health                    liveness + job-state counts
    GET    /jobs                      every job, oldest first
    POST   /jobs                      submit a campaign (or scenario)
    GET    /jobs/<id>                 job + per-cell progress by path
    GET    /jobs/<id>/aggregates      mean/CI/p95 per cell, from the store
    GET    /jobs/<id>/stream          NDJSON aggregate snapshots until done
    POST   /jobs/<id>/cancel          cooperative cancel
    DELETE /jobs/<id>                 alias for cancel

``POST /jobs`` accepts a bare :class:`CampaignSpec` JSON object, a bare
:class:`ScenarioSpec` object (wrapped into a single-cell campaign), or
an envelope ``{"campaign": {...}}`` / ``{"scenario": {...}}`` with an
optional ``"workers"`` override.  Validation failures are 400s carrying
the library's own error message.

The module is stdlib-only (``http.server`` + ``threading``): the
service adds no runtime dependency to the package.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import api
from repro.campaigns.spec import CampaignSpec
from repro.exceptions import DRSError
from repro.service.jobs import (
    TERMINAL_STATES,
    JobExecutor,
    JobQueue,
    JobRecord,
    job_progress,
)

#: Subdirectory of the store root where job records persist.
JOBS_DIR = "jobs"

#: Default TCP port (no meaning beyond "unassigned and memorable").
DEFAULT_PORT = 8151

#: Largest request body the service reads.  A submission is one spec
#: (kilobytes); a larger ``Content-Length`` is refused with 413 before
#: any of the body is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a connection may stall mid-request (or idle between
#: requests) before the service gives up on it.  A client that stops
#: sending its announced body gets a 408; a stalled request line or
#: header, or an idle keep-alive connection, is closed.
READ_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`CampaignService` needs to come up."""

    store: Path
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Concurrent jobs (worker threads draining the queue).
    job_workers: int = 2
    #: Per-job replication processes (``None`` = all cores).
    campaign_workers: Optional[int] = None
    #: Tolerance manifest for hybrid/analytic submissions (``None`` =
    #: the evaluator's own committed-manifest search).
    manifest: Optional[Path] = None
    safety_margin: float = 1.0
    #: Seconds between aggregate snapshots on the stream endpoint.
    poll_interval: float = 0.25


def campaign_from_submission(raw: Any) -> Tuple[CampaignSpec, Optional[int]]:
    """The campaign (and optional worker override) a POST body asks for.

    Accepts the four documented shapes; a scenario submission becomes a
    single-cell campaign whose one cell keeps the scenario's name, so
    scenario and campaign submissions flow through one job pipeline.
    """
    if not isinstance(raw, Mapping):
        raise DRSError("submission body must be a JSON object")
    workers = raw.get("workers") if isinstance(raw, Mapping) else None
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise DRSError(f"workers must be >= 1, got {workers}")
    if "campaign" in raw:
        return api.load_campaign(raw["campaign"]), workers
    if "scenario" in raw:
        scenario = api.load_scenario(raw["scenario"])
        return CampaignSpec.from_scenario(scenario), workers
    if "base" in raw:
        return api.load_campaign(raw), workers
    if "workload" in raw:
        return CampaignSpec.from_scenario(api.load_scenario(raw)), workers
    raise DRSError(
        "submission must be a CampaignSpec object, a ScenarioSpec object,"
        " or an envelope with a 'campaign' or 'scenario' key"
    )


class _BodyTooLarge(DRSError):
    """A request announced a body above :data:`MAX_BODY_BYTES` (413)."""


class _BodyTimeout(DRSError):
    """A request's body stalled past :data:`READ_TIMEOUT_S` (408)."""


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`CampaignService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    #: Socket timeout of every connection (``socketserver`` applies it).
    timeout = READ_TIMEOUT_S

    # The default handler logs every request to stderr; the service
    # keeps quiet unless asked (config lives on the server object).
    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> "CampaignService":
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            raise DRSError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body is never read
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True  # the rest of the body may follow
            raise _BodyTimeout(
                f"request body not received within {self.timeout:g} s"
            ) from None
        if not raw:
            raise DRSError("request body is empty")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DRSError(f"request body is not valid JSON: {exc}") from None

    def _job_or_404(self, job_id: str) -> Optional[JobRecord]:
        job = self.service.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["health"]:
            return self._send_json(
                200,
                {"status": "ok", "jobs": self.service.queue.counts()},
            )
        if parts == ["jobs"]:
            return self._send_json(
                200,
                {"jobs": [j.to_dict() for j in self.service.queue.list()]},
            )
        if len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_json(200, self.service.job_status(job))
            return
        if len(parts) == 3 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is None:
                return
            if parts[2] == "aggregates":
                return self._send_json(200, self.service.job_aggregates(job))
            if parts[2] == "stream":
                return self._stream(job)
        self._error(404, f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["jobs"]:
            try:
                campaign, workers = campaign_from_submission(self._read_body())
            except _BodyTooLarge as exc:
                return self._error(413, str(exc))
            except _BodyTimeout as exc:
                return self._error(408, str(exc))
            except DRSError as exc:
                return self._error(400, str(exc))
            job, enqueued = self.service.submit(campaign, workers=workers)
            return self._send_json(
                202 if enqueued else 200,
                {"job": job.to_dict(), "enqueued": enqueued},
            )
        if len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "cancel":
            return self._cancel(parts[1])
        self._error(404, f"no route for POST {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            return self._cancel(parts[1])
        self._error(404, f"no route for DELETE {self.path}")

    def _cancel(self, job_id: str) -> None:
        job = self.service.queue.cancel(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        self._send_json(200, {"job": job.to_dict()})

    # ------------------------------------------------------------------
    # streaming aggregates
    # ------------------------------------------------------------------
    def _stream(self, job: JobRecord) -> None:
        """Chunked NDJSON: one aggregate snapshot per line, as
        replications land in the store; closes once the job is
        terminal (final snapshot included)."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        last = None
        seq = 0
        try:
            while True:
                current = self.service.queue.get(job.id) or job
                snapshot = self.service.job_snapshot(current)
                line = json.dumps(snapshot, sort_keys=True) + "\n"
                if line != last:
                    snapshot["seq"] = seq
                    seq += 1
                    payload = (
                        json.dumps(snapshot, sort_keys=True) + "\n"
                    ).encode("utf-8")
                    self.wfile.write(
                        f"{len(payload):x}\r\n".encode() + payload + b"\r\n"
                    )
                    self.wfile.flush()
                    last = line
                # Decide on the state that was *written*, not the live
                # record: the job may turn terminal mid-iteration, and
                # the stream must end on a terminal line.
                if snapshot["state"] in TERMINAL_STATES:
                    break
                time.sleep(self.service.config.poll_interval)
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            self.close_connection = True


class CampaignService:
    """The HTTP campaign service: queue + executor + server, one store.

    >>> import tempfile
    >>> from repro.service.server import CampaignService, ServiceConfig
    >>> service = CampaignService(
    ...     ServiceConfig(store=tempfile.mkdtemp(), port=0))
    >>> service.start()                   # doctest: +SKIP
    >>> service.url                       # doctest: +SKIP
    'http://127.0.0.1:43121'
    >>> service.shutdown()                # doctest: +SKIP

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`).  :meth:`start` serves on a background thread;
    :meth:`serve_forever` blocks (the ``repro serve`` verb).  Shutdown
    interrupts running jobs cooperatively and re-queues them, so a
    bounce loses no completed replication and recomputes nothing that
    finished — the store, not the process, is the source of truth.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        store_root = Path(config.store)
        self.queue = JobQueue(store_root / JOBS_DIR)
        self.executor = JobExecutor(
            self.queue,
            store_root,
            job_workers=config.job_workers,
            campaign_workers=config.campaign_workers,
            manifest=config.manifest,
            safety_margin=config.safety_margin,
        )
        self._httpd = ThreadingHTTPServer(
            (config.host, config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve on a background thread (tests, embedded use)."""
        import threading

        self.executor.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI verb)."""
        self.executor.start()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop serving and interrupt jobs (they re-queue for resume)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self.executor.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    # views used by the handler
    # ------------------------------------------------------------------
    def submit(
        self, campaign: CampaignSpec, *, workers: Optional[int] = None
    ) -> Tuple[JobRecord, bool]:
        job, enqueued = self.queue.submit(campaign, workers=workers)
        if enqueued:
            self.executor.notify()
        return job, enqueued

    def _progress(self, campaign: CampaignSpec, store) -> Dict[str, Any]:
        """Planner-derived progress, decided with the executor's
        manifest and safety margin."""
        evaluator = api.campaign_evaluator(
            campaign.evaluation,
            manifest=self.config.manifest,
            safety_margin=self.config.safety_margin,
        )
        return job_progress(campaign, store, evaluator)

    def job_status(self, job: JobRecord) -> Dict[str, Any]:
        """The job record plus live per-cell, per-path progress."""
        payload = job.to_dict()
        campaign = CampaignSpec.from_dict(job.campaign)
        payload["progress"] = self._progress(campaign, self.executor.store())
        return payload

    def job_aggregates(self, job: JobRecord) -> Dict[str, Any]:
        """Incremental mean/CI/p95 aggregates from the shared store."""
        campaign = CampaignSpec.from_dict(job.campaign)
        return api.aggregate(campaign, self.executor.store()).to_dict()

    def job_snapshot(self, job: JobRecord) -> Dict[str, Any]:
        """One stream line: state + progress + current aggregates."""
        campaign = CampaignSpec.from_dict(job.campaign)
        store = self.executor.store()
        return {
            "job": job.id,
            "state": job.state,
            "progress": self._progress(campaign, store),
            "aggregate": api.aggregate(campaign, store).to_dict(),
        }
