"""``repro serve``: the stdlib HTTP adapter over the job runtime.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no dependency
beyond the standard library.  The HTTP layer is deliberately thin: all
durability, dedup, and admission logic lives in
:class:`~repro.service.runtime.JobRuntime`; this module only translates
requests to runtime calls and runtime outcomes to status codes.

API (see docs/service.md for the full contract)::

    GET  /healthz                cheap liveness (journal + queue census)
    GET  /healthz?full=1         the whole doctor probe battery, as JSON
    POST /v1/jobs                submit {"kind", "params", "deadline_s"?}
                                 -> 202 admitted | 200 deduped
                                 -> 429 + Retry-After saturated/shed
                                 -> 503 + Retry-After draining
                                 -> 400 malformed | 413 oversized
    GET  /v1/jobs                every known job, oldest first
    GET  /v1/jobs/<id>           one job record (404 unknown)
    GET  /v1/jobs/<id>/result    the persisted result bytes (409 until
                                 DONE; byte-identical to the CLI --json
                                 output for run jobs)
    GET  /v1/telemetry           service.* / resilience.* / planner
                                 counters (what the chaos scenarios and
                                 the dedup invariant assert against)
                                 and the timing memo's perf.timing

Handler threads never crash the server: a client that disconnects
mid-request is counted (``service.client_disconnects``) and the thread
moves on.  SIGTERM triggers a graceful drain — stop accepting, finish
or journal in-flight jobs, flush the obs ledger — and SIGINT behaves
the same, so Ctrl-C on a foreground server is a clean shutdown.

``--port 0`` binds an ephemeral port; ``--ready-file PATH`` writes a
JSON handshake (pid, port, url) once the socket is listening, which is
how the smoke script and the chaos scenarios find the server without
racing its startup.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, ServiceError
from repro.service import jobs as jobmod
from repro.service.runtime import JobRuntime, ServiceConfig
from repro.service.stats import SERVICE_STATS

__all__ = ["ServiceServer", "serve"]

#: Largest accepted request body; a sweep of every paper cell is ~10 KB,
#: so 1 MiB is generous headroom rather than a real limit.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; ``server.runtime`` is the shared JobRuntime."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out as separate writes, and with
    # Nagle on, a keep-alive client's delayed ACK holds the body ~40 ms.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging goes through the obs ledger, not stderr

    @property
    def runtime(self) -> JobRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    def _send_json(
        self,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
        raw_text: Optional[str] = None,
    ) -> None:
        body = (
            raw_text
            if raw_text is not None
            else json.dumps(payload, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        SERVICE_STATS.note("http_errors")
        self._send_json(status, {"error": message}, headers=headers)

    def handle_one_request(self) -> None:  # noqa: D102
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client went away mid-exchange; the job (if admitted)
            # keeps running — results are poll-able, not streamed.
            SERVICE_STATS.note("client_disconnects")
            self.close_connection = True
        except Exception:  # noqa: BLE001 — a handler must not kill the server
            SERVICE_STATS.note("http_errors")
            self.close_connection = True

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        SERVICE_STATS.note("http_requests")
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._healthz(parse_qs(url.query))
        elif parts == ["v1", "jobs"]:
            self._send_json(
                200, {"jobs": [j.record() for j in self.runtime.jobs()]}
            )
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._get_job(parts[2])
        elif (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "result"
        ):
            self._get_result(parts[2])
        elif parts == ["v1", "telemetry"]:
            self._telemetry()
        else:
            self._error(404, f"no route for GET {url.path}")

    def do_POST(self) -> None:  # noqa: N802
        SERVICE_STATS.note("http_requests")
        if urlparse(self.path).path != "/v1/jobs":
            self._error(404, f"no route for POST {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._error(411, "Content-Length required")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(length)
        if len(body) < length:
            # Disconnected mid-upload; nothing was admitted.
            SERVICE_STATS.note("client_disconnects")
            self.close_connection = True
            return
        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"body is not valid JSON: {exc}")
            return
        if not isinstance(request, dict):
            self._error(400, "body must be a JSON object")
            return
        self._submit(request)

    # -- route bodies ---------------------------------------------------

    def _submit(self, request: Dict[str, Any]) -> None:
        kind = request.get("kind")
        params = request.get("params")
        if not isinstance(kind, str) or not isinstance(params, dict):
            self._error(
                400, 'body must carry "kind" (string) and "params" (object)'
            )
            return
        deadline_s = request.get("deadline_s")
        try:
            submission = self.runtime.submit(
                kind,
                params,
                deadline_s=(
                    float(deadline_s) if deadline_s is not None else None
                ),
            )
        except ServiceError as exc:
            self._error(400, str(exc))
            return
        if submission.rejected:
            status = 503 if submission.outcome == "rejected_draining" else 429
            self._error(
                status,
                f"{submission.outcome}: "
                f"retry after {submission.retry_after_s}s",
                headers={"Retry-After": str(submission.retry_after_s)},
            )
            return
        job = submission.job
        assert job is not None
        self._send_json(
            202 if submission.outcome == "admitted" else 200,
            {"outcome": submission.outcome, **job.record()},
        )

    def _get_job(self, jid: str) -> None:
        job = self.runtime.get(jid)
        if job is None:
            self._error(404, f"unknown job {jid!r}")
            return
        self._send_json(200, job.record())

    def _get_result(self, jid: str) -> None:
        job = self.runtime.get(jid)
        if job is None:
            self._error(404, f"unknown job {jid!r}")
            return
        if job.state != jobmod.DONE:
            self._error(
                409, f"job {jid} is {job.state}, result not available"
            )
            return
        text = self.runtime.result_text(jid)
        if text is None:
            self._error(404, f"result file for {jid} is missing")
            return
        # Serve the persisted bytes verbatim: for run jobs this is
        # byte-identical to `repro run ... --json` stdout.
        self._send_json(200, None, raw_text=text)

    def _healthz(self, query: Dict[str, Any]) -> None:
        if query.get("full"):
            from repro.resilience.doctor import doctor_json, run_doctor

            record = doctor_json(run_doctor())
            self._send_json(200 if record["healthy"] else 503, record)
            return
        jobs = self.runtime.jobs()
        census = {
            state: sum(1 for j in jobs if j.state == state)
            for state in jobmod.STATES
        }
        payload = {
            "status": "ok",
            "pid": os.getpid(),
            "queue_depth": self.runtime.queue_depth(),
            "jobs": census,
            "journal_records": self.runtime.journal.next_seq,
        }
        self._send_json(200, payload)

    def _telemetry(self) -> None:
        from repro.perf.cache import TIMING_PASSES
        from repro.perf.planner import PLANNER_STATS
        from repro.resilience.stats import RESILIENCE

        planner = PLANNER_STATS.snapshot()
        self._send_json(
            200,
            {
                "service": SERVICE_STATS.snapshot(),
                "resilience": RESILIENCE.snapshot(),
                "counters": {f"planner.{k}": v for k, v in planner.items()},
                "timing": TIMING_PASSES.stats(),
            },
        )


class ServiceServer:
    """A bound server plus its runtime, with signal-driven drain."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.runtime = JobRuntime(config)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.runtime = self.runtime  # type: ignore[attr-defined]
        self._shutdown_started = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def write_ready_file(self, path: str) -> None:
        """Publish the startup handshake (atomic, so a polling client
        never reads a half-written file)."""
        from repro.ioutil import atomic_write_text

        host, port = self.address
        ready = {"pid": os.getpid(), "host": host, "port": port,
                 "url": self.url}
        atomic_write_text(path, json.dumps(ready, indent=2) + "\n")

    def request_shutdown(self) -> None:
        """Begin shutdown from any thread (idempotent).

        ``httpd.shutdown`` must not run on the serve_forever thread, so
        signal handlers delegate to a helper thread.
        """
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        threading.Thread(target=self.httpd.shutdown, daemon=True).start()

    def install_signal_handlers(self) -> None:
        def _handler(signum: int, frame: Any) -> None:
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def serve_until_shutdown(self) -> Dict[str, int]:
        """Run: workers + accept loop, then drain.  Returns the drain
        census for the shutdown log."""
        self.runtime.start()
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()
        return self.runtime.drain()


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    config: Optional[ServiceConfig] = None,
    ready_file: Optional[str] = None,
) -> Dict[str, int]:
    """Run the service until SIGTERM/SIGINT; returns the drain census.

    The obs ledger session wrapping (flight recorder, metrics history)
    comes from the CLI entry point, which treats ``serve`` as a session
    command — the ledger is flushed after the drain as part of normal
    session teardown.
    """
    from repro.obs.ledger import record

    server = ServiceServer(host=host, port=port, config=config)
    server.install_signal_handlers()
    if ready_file:
        server.write_ready_file(ready_file)
    record(
        "service.start",
        url=server.url,
        pid=os.getpid(),
        replayed=server.runtime.replayed_jobs,
    )
    return server.serve_until_shutdown()
