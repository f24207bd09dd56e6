#!/usr/bin/env python3
"""End-to-end smoke test for ``repro serve`` (the CI service gate).

Boots a real server subprocess on an ephemeral port with isolated
state directories, then walks the service contract:

1. the ready-file handshake appears and ``/healthz`` answers 200;
2. a ``run`` job POSTed to ``/v1/jobs`` is admitted (202) and reaches
   ``DONE``;
3. its result bytes are **identical** to ``repro run ... --json``
   stdout — the service and the CLI are the same computation;
4. an identical second POST dedups (200, same job id);
5. the same pair with a second seed shares the first job's timing
   pass (``/v1/telemetry`` reads a ``timing`` hit), and its result
   bytes are identical to ``repro run ... --seed N --json`` from a
   fresh process with no store, which computes every pass afresh;
6. SIGTERM drains the server, which exits 0.

Run locally with ``make serve-smoke``.  Exits non-zero with a labelled
message on the first failed step.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KERNEL, MACHINE = "corner_turn", "viram"
#: The second job's functional seed (the first runs the default, 0).
SECOND_SEED = 7


def fail(step: str, detail: str) -> None:
    print(f"serve-smoke FAIL [{step}]: {detail}", file=sys.stderr)
    sys.exit(1)


def request(method: str, url: str, body=None, timeout=30.0):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def run_job(url: str, payload) -> tuple:
    """POST a new job, wait for DONE; returns (job id, result bytes)."""
    step = f"seed {payload['params'].get('seed', 0)}"
    status, body = request("POST", url + "/v1/jobs", payload)
    record = json.loads(body)
    if status != 202 or record.get("outcome") != "admitted":
        fail(f"submit {step}", f"status={status} record={record}")
    jid = record["job"]

    deadline = time.monotonic() + 120
    state = None
    while time.monotonic() < deadline:
        status, body = request("GET", f"{url}/v1/jobs/{jid}")
        state = json.loads(body).get("state")
        if state in ("DONE", "FAILED"):
            break
        time.sleep(0.05)
    if state != "DONE":
        fail(f"poll {step}", f"job ended {state!r}")

    status, result = request("GET", f"{url}/v1/jobs/{jid}/result")
    if status != 200:
        fail(f"result {step}", f"expected 200, got {status}")
    return jid, result


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(REPO / "src"),
                        os.environ.get("PYTHONPATH", "")) if p
        ),
        REPRO_SERVICE_DIR=str(tmp / "svc"),
        REPRO_DISK_CACHE_DIR=str(tmp / "cache"),
        REPRO_OBS_DIR=str(tmp / "obs"),
    )
    env.pop("REPRO_CHAOS", None)
    ready = tmp / "ready.json"

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--ready-file", str(ready)],
        env=env, cwd=str(tmp),
    )
    try:
        deadline = time.monotonic() + 60
        while not ready.is_file():
            if server.poll() is not None:
                fail("start", f"server exited rc={server.returncode}")
            if time.monotonic() > deadline:
                fail("start", "ready file never appeared")
            time.sleep(0.05)
        url = json.loads(ready.read_text())["url"]

        status, _ = request("GET", url + "/healthz")
        if status != 200:
            fail("healthz", f"expected 200, got {status}")

        payload = {"kind": "run",
                   "params": {"kernel": KERNEL, "machine": MACHINE}}
        jid, service_bytes = run_job(url, payload)

        cli = subprocess.run(
            [sys.executable, "-m", "repro", "run", KERNEL, MACHINE,
             "--json"],
            env=env, cwd=str(tmp), capture_output=True, check=True,
        )
        if service_bytes != cli.stdout:
            fail(
                "cli-parity",
                f"service result ({len(service_bytes)} bytes) differs "
                f"from CLI --json stdout ({len(cli.stdout)} bytes)",
            )

        status, body = request("POST", url + "/v1/jobs", payload)
        duplicate = json.loads(body)
        if status != 200 or duplicate.get("outcome") != "deduped":
            fail("dedup", f"status={status} record={duplicate}")
        if duplicate.get("job") != jid:
            fail("dedup", "duplicate request produced a different job id")

        reseeded = {"kind": "run",
                    "params": {"kernel": KERNEL, "machine": MACHINE,
                               "seed": SECOND_SEED}}
        _, reseeded_bytes = run_job(url, reseeded)
        status, body = request("GET", url + "/v1/telemetry")
        timing = json.loads(body).get("timing", {})
        if status != 200 or timing.get("hits", 0) < 1:
            fail("timing-memo", f"status={status} timing={timing}")
        fresh = subprocess.run(
            [sys.executable, "-m", "repro", "run", KERNEL, MACHINE,
             "--seed", str(SECOND_SEED), "--json"],
            env=dict(env, REPRO_DISK_CACHE="0"), cwd=str(tmp),
            capture_output=True, check=True,
        )
        if reseeded_bytes != fresh.stdout:
            fail(
                "fresh-parity",
                f"seed {SECOND_SEED} result ({len(reseeded_bytes)} bytes) "
                f"differs from a fresh process's --json stdout "
                f"({len(fresh.stdout)} bytes)",
            )

        server.send_signal(signal.SIGTERM)
        rc = server.wait(timeout=60)
        if rc != 0:
            fail("drain", f"SIGTERM exit code {rc}")

        print(
            "serve-smoke OK: admitted -> DONE, result byte-identical "
            f"to CLI ({len(service_bytes)} bytes), duplicate deduped "
            f"to {jid}, seed {SECOND_SEED} shared the timing pass "
            f"({timing['hits']} hit) and matched a fresh process, "
            "SIGTERM drained with exit 0"
        )
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


if __name__ == "__main__":
    main()
