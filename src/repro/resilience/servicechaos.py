"""Chaos scenarios for the simulation service: crash, tear, disconnect.

The in-process chaos harness (:mod:`repro.resilience.chaos`) proves the
*sweep runtime* converges under injected faults; this module proves the
*service* does — with real processes, real signals, and real sockets,
because "SIGKILL'd mid-job" cannot be faithfully simulated in-process.
Each scenario boots ``python -m repro serve`` as a subprocess on an
ephemeral port with isolated state directories (service journal, disk
cache, obs ledger all under a temp root — the user's state is never
touched), drives it over HTTP, and asserts the acceptance bar from
docs/service.md:

* ``chaos.service.kill-replay`` — SIGKILL the server while a sweep job
  is RUNNING; a restart on the same directories must replay the job to
  DONE with result bytes **identical** to an uninterrupted server's;
* ``chaos.service.torn-journal`` — the crash also tears the journal
  tail (garbage appended mid-record); the restart must quarantine the
  torn bytes and come up healthy;
* ``chaos.service.client-disconnect`` — a client that sends half a
  request body and vanishes must be counted and survived, not crash a
  handler thread;
* ``chaos.service.corrupt-recompute`` — a cache entry corrupted on disk
  *while the job that wrote it was in flight* (the ``corrupt=1`` chaos
  hook, active inside the server process) must be quarantined by the
  next server, which recomputes the byte-identical result;
* ``chaos.service.drain`` — every surviving server exits 0 on SIGTERM
  with a clean drain.

Scenario failures are reported as ``CheckResult`` rows so
``run_chaos_check`` can merge them into the chaos report; the CLI's
replay-command suffix (see :func:`repro.resilience.chaos.
run_chaos_check`) then makes any failure a one-command local repro.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.check.report import FAIL, PASS, CheckResult

__all__ = ["service_chaos_checks"]

#: How long to wait for a server subprocess to publish its ready file.
READY_TIMEOUT_S = 60.0

#: How long to wait for a job to reach a terminal state.
JOB_TIMEOUT_S = 120.0


def _repo_pythonpath() -> str:
    """A PYTHONPATH that resolves :mod:`repro` in the subprocess even
    when the parent found it via an installed path."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    return src + (os.pathsep + existing if existing else "")


def _service_env(tmp: Path, tag: str) -> Dict[str, str]:
    """A subprocess environment with every stateful surface redirected
    under ``tmp`` and any inherited chaos spec stripped."""
    env = dict(os.environ)
    for name in ("REPRO_CHAOS", "REPRO_CHUNK_DEADLINE"):
        env.pop(name, None)
    env["PYTHONPATH"] = _repo_pythonpath()
    env["REPRO_SERVICE_DIR"] = str(tmp / tag / "svc")
    env["REPRO_DISK_CACHE_DIR"] = str(tmp / tag / "cache")
    env["REPRO_OBS_DIR"] = str(tmp / tag / "obs")
    return env


class _Server:
    """One ``repro serve`` subprocess with the ready-file handshake."""

    def __init__(self, tmp: Path, env: Dict[str, str], tag: str) -> None:
        self.tag = tag
        self.ready_file = tmp / f"ready-{tag}.json"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--ready-file", str(self.ready_file),
            ],
            env=env,
            cwd=str(tmp),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.url = self._await_ready()

    def _await_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.ready_file.is_file():
                try:
                    handshake = json.loads(self.ready_file.read_text())
                    return str(handshake["url"])
                except (ValueError, KeyError):
                    pass  # mid-write; the write is atomic, retry
            if self.proc.poll() is not None:
                stderr = (self.proc.stderr.read() or b"").decode(
                    "utf-8", "replace"
                )
                raise RuntimeError(
                    f"server {self.tag} exited rc={self.proc.returncode} "
                    f"before ready: {stderr[-500:]}"
                )
            time.sleep(0.05)
        raise RuntimeError(f"server {self.tag} never became ready")

    def sigkill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)

    def sigterm(self) -> int:
        """Graceful shutdown; returns the exit code (0 = clean drain)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            return -9

    def ensure_dead(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        try:
            self.ready_file.unlink()
        except OSError:
            pass


def _http(
    method: str, url: str, body: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Tuple[int, bytes]:
    """One HTTP exchange; HTTP error statuses are returned, not raised."""
    data = (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _submit(server: _Server, payload: Dict[str, Any]) -> Tuple[int, Dict]:
    status, body = _http("POST", server.url + "/v1/jobs", payload)
    return status, json.loads(body.decode("utf-8"))


def _poll_job(
    server: _Server, jid: str, until: Tuple[str, ...],
    timeout: float = JOB_TIMEOUT_S,
) -> Optional[Dict[str, Any]]:
    """Poll the job record until its state is in ``until`` (or timeout,
    returning the last record seen — possibly ``None``)."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        status, body = _http("GET", f"{server.url}/v1/jobs/{jid}")
        if status == 200:
            last = json.loads(body.decode("utf-8"))
            if last.get("state") in until:
                return last
        time.sleep(0.01)
    return last


def _telemetry(server: _Server) -> Dict[str, Any]:
    status, body = _http("GET", server.url + "/v1/telemetry")
    return json.loads(body.decode("utf-8")) if status == 200 else {}


def _result_bytes(server: _Server, jid: str) -> Optional[bytes]:
    status, body = _http("GET", f"{server.url}/v1/jobs/{jid}/result")
    return body if status == 200 else None


def _sweep_payload(fast: bool) -> Dict[str, Any]:
    """A sweep whose cells all have distinct seeds, so every cell is a
    genuine computation (no cache collapse) and the RUNNING window is
    wide enough to land a SIGKILL inside."""
    seeds = range(2 if fast else 4)
    cells = [
        {"kernel": kernel, "machine": machine, "seed": seed}
        for seed in seeds
        for kernel, machine in (
            ("corner_turn", "viram"),
            ("cslc", "raw"),
            ("beam_steering", "imagine"),
        )
    ]
    return {"kind": "sweep", "params": {"cells": cells}}


def _append_torn_tail(env: Dict[str, str]) -> Path:
    """Tear the journal the way a crash mid-append would: half a record,
    no newline.  Returns the journal path."""
    path = Path(env["REPRO_SERVICE_DIR"]) / "journal.jsonl"
    with open(path, "ab") as fh:
        fh.write(b'{"schema": 1, "seq": 999999, "job": "c0ffee')
    return path


def _half_post(url: str) -> None:
    """Open a socket, claim a 512-byte body, send 20 bytes, vanish."""
    from urllib.parse import urlparse

    parts = urlparse(url)
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=10
    ) as sock:
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Host: repro\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 512\r\n"
            b"\r\n"
            b'{"kind": "run", "par'
        )
        # Abort without finishing the body: RST on close via SO_LINGER
        # is not needed — a FIN with 492 bytes owed is disconnection
        # enough for the short-read path.


def service_chaos_checks(fast: bool = True) -> List[CheckResult]:
    """Run the service scenario battery; one ``CheckResult`` per claim.

    ``fast`` shrinks the sweep used as the kill target (fewer seeds);
    every scenario still runs.  A scenario that errors out (server never
    ready, HTTP failure) fails its row with the exception text rather
    than raising — chaos reporting must itself be crash-safe.
    """
    import tempfile

    results: List[CheckResult] = []
    with tempfile.TemporaryDirectory(prefix="repro-svc-chaos-") as raw:
        tmp = Path(raw)
        try:
            results.extend(_crash_battery(tmp, fast))
        except Exception as exc:  # noqa: BLE001 — report, don't explode
            results.append(
                CheckResult(
                    "chaos.service.kill-replay", FAIL,
                    f"scenario error: {type(exc).__name__}: {exc}",
                )
            )
        try:
            results.append(_corrupt_battery(tmp))
        except Exception as exc:  # noqa: BLE001
            results.append(
                CheckResult(
                    "chaos.service.corrupt-recompute", FAIL,
                    f"scenario error: {type(exc).__name__}: {exc}",
                )
            )
    return results


def _crash_battery(tmp: Path, fast: bool) -> List[CheckResult]:
    """kill-replay + torn-journal + client-disconnect + drain, all on
    one crashed-and-restarted server (plus a pristine reference)."""
    results: List[CheckResult] = []
    env = _service_env(tmp, "crash")
    payload = _sweep_payload(fast)

    victim = _Server(tmp, env, "victim")
    reborn = None
    reference = None
    try:
        status, record = _submit(victim, payload)
        jid = record.get("job", "")
        admitted = status == 202 and record.get("outcome") == "admitted"
        seen = _poll_job(victim, jid, ("RUNNING", "DONE"), timeout=30)
        killed_mid_job = bool(seen) and seen.get("state") == "RUNNING"
        victim.sigkill()
        journal = _append_torn_tail(env)

        reborn = _Server(tmp, env, "reborn")
        health, _ = _http("GET", reborn.url + "/healthz")
        quarantine = journal.with_suffix(".quarantine")
        final = _poll_job(reborn, jid, ("DONE", "FAILED"))
        replayed = int(
            _telemetry(reborn).get("service", {}).get("replayed", 0)
        )
        chaotic = _result_bytes(reborn, jid)

        reference = _Server(tmp, _service_env(tmp, "ref"), "ref")
        status_r, record_r = _submit(reference, payload)
        same_id = record_r.get("job") == jid  # job identity is content-addressed
        final_r = _poll_job(reference, jid, ("DONE", "FAILED"))
        clean = _result_bytes(reference, jid)

        converged = (
            chaotic is not None and clean is not None and chaotic == clean
        )
        if (
            admitted and killed_mid_job and replayed >= 1
            and final is not None and final.get("state") == "DONE"
            and same_id and converged
        ):
            results.append(
                CheckResult(
                    "chaos.service.kill-replay", PASS,
                    f"SIGKILL at RUNNING, restart replayed job {jid} to "
                    "DONE, result byte-identical to an undisturbed server",
                )
            )
        else:
            results.append(
                CheckResult(
                    "chaos.service.kill-replay", FAIL,
                    f"admitted={admitted} killed_mid_job={killed_mid_job} "
                    f"replayed={replayed} "
                    f"final={(final or {}).get('state')} "
                    f"ref={(final_r or {}).get('state')} "
                    f"same_id={same_id} bytes_equal={converged}",
                )
            )

        if health == 200 and quarantine.is_file():
            results.append(
                CheckResult(
                    "chaos.service.torn-journal", PASS,
                    "torn tail quarantined on restart, /healthz 200",
                )
            )
        else:
            results.append(
                CheckResult(
                    "chaos.service.torn-journal", FAIL,
                    f"healthz={health} "
                    f"quarantine_exists={quarantine.is_file()}",
                )
            )

        _half_post(reborn.url)
        health2, _ = _http("GET", reborn.url + "/healthz")
        disconnects = int(
            _telemetry(reborn)
            .get("service", {})
            .get("client_disconnects", 0)
        )
        if health2 == 200 and disconnects >= 1:
            results.append(
                CheckResult(
                    "chaos.service.client-disconnect", PASS,
                    "half-sent POST survived: server live, "
                    f"service.client_disconnects={disconnects}",
                )
            )
        else:
            results.append(
                CheckResult(
                    "chaos.service.client-disconnect", FAIL,
                    f"healthz={health2} client_disconnects={disconnects}",
                )
            )

        rc_reborn = reborn.sigterm()
        rc_ref = reference.sigterm()
        if rc_reborn == 0 and rc_ref == 0:
            results.append(
                CheckResult(
                    "chaos.service.drain", PASS,
                    "SIGTERM drained both servers, exit 0",
                )
            )
        else:
            results.append(
                CheckResult(
                    "chaos.service.drain", FAIL,
                    f"exit codes: reborn={rc_reborn} reference={rc_ref}",
                )
            )
    finally:
        for server in (victim, reborn, reference):
            if server is not None:
                server.ensure_dead()
    return results


def _corrupt_battery(tmp: Path) -> CheckResult:
    """A cache entry corrupted while its writing job was in flight must
    be quarantined and recomputed byte-identically by the next server."""
    env = _service_env(tmp, "corrupt")
    tokens = tmp / "corrupt" / "tokens"
    env["REPRO_CHAOS"] = f"corrupt=1,dir={tokens}"
    payload = {
        "kind": "run",
        "params": {"kernel": "corner_turn", "machine": "viram", "seed": 7},
    }

    writer = _Server(tmp, env, "writer")
    reader = None
    try:
        _, record = _submit(writer, payload)
        jid = record.get("job", "")
        final_w = _poll_job(writer, jid, ("DONE", "FAILED"))
        first = _result_bytes(writer, jid)
        writer.sigterm()
        fired = (tokens / "corrupt-0.token").is_file()

        # A fresh journal forces a real re-execution (no dedup), but the
        # same disk-cache root serves the now-corrupted entry.
        env2 = dict(env)
        env2.pop("REPRO_CHAOS", None)
        env2["REPRO_SERVICE_DIR"] = str(tmp / "corrupt" / "svc2")
        reader = _Server(tmp, env2, "reader")
        _, record2 = _submit(reader, payload)
        jid2 = record2.get("job", "")
        final_r = _poll_job(reader, jid2, ("DONE", "FAILED"))
        second = _result_bytes(reader, jid2)
        quarantined = int(
            _telemetry(reader).get("resilience", {}).get("quarantined", 0)
        )
        reader.sigterm()

        converged = (
            first is not None and second is not None and first == second
        )
        done = (
            (final_w or {}).get("state") == "DONE"
            and (final_r or {}).get("state") == "DONE"
        )
        if fired and done and quarantined >= 1 and converged:
            return CheckResult(
                "chaos.service.corrupt-recompute", PASS,
                "entry corrupted mid-job; next server quarantined it "
                f"(resilience.quarantined={quarantined}) and recomputed "
                "byte-identically",
            )
        return CheckResult(
            "chaos.service.corrupt-recompute", FAIL,
            f"injection_fired={fired} states=({(final_w or {}).get('state')},"
            f" {(final_r or {}).get('state')}) quarantined={quarantined} "
            f"bytes_equal={converged}",
        )
    finally:
        for server in (writer, reader):
            if server is not None:
                server.ensure_dead()
