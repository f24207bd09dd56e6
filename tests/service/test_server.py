"""Tests for the HTTP layer: routes, status codes, disconnects."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.runtime import ServiceConfig
from repro.service.server import MAX_BODY_BYTES, ServiceServer
from repro.service.stats import SERVICE_STATS


def _executor(kind, params, jobs=None):
    return {"kind": kind, "params": dict(params)}


@pytest.fixture
def server(tmp_path):
    """An in-process server on an ephemeral port, with one worker."""
    srv = ServiceServer(
        host="127.0.0.1",
        port=0,
        config=ServiceConfig(
            root=tmp_path / "svc", workers=1, executor=_executor
        ),
    )
    srv.runtime.start()
    thread = threading.Thread(
        target=srv.httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    yield srv
    srv.httpd.shutdown()
    srv.httpd.server_close()
    thread.join(timeout=10)
    srv.runtime.drain(timeout=10)


def _request(method, url, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        return exc.code, json.loads(payload) if payload else None


RUN = {"kind": "run",
       "params": {"kernel": "corner_turn", "machine": "viram"}}


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _request("GET", server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert "queue_depth" in payload and "jobs" in payload

    def test_submit_poll_result_roundtrip(self, server):
        status, record = _request("POST", server.url + "/v1/jobs", RUN)
        assert status == 202
        assert record["outcome"] == "admitted"
        jid = record["job"]
        job = server.runtime.wait(jid, timeout=10)
        assert job.state == "DONE"
        status, result = _request(
            "GET", f"{server.url}/v1/jobs/{jid}/result"
        )
        assert status == 200
        assert result["kind"] == "run"

    def test_duplicate_submission_returns_200_deduped(self, server):
        _request("POST", server.url + "/v1/jobs", RUN)
        status, record = _request("POST", server.url + "/v1/jobs", RUN)
        assert status == 200
        assert record["outcome"] == "deduped"

    def test_jobs_listing_and_lookup(self, server):
        _, record = _request("POST", server.url + "/v1/jobs", RUN)
        status, listing = _request("GET", server.url + "/v1/jobs")
        assert status == 200
        assert record["job"] in [j["job"] for j in listing["jobs"]]
        status, job = _request(
            "GET", f"{server.url}/v1/jobs/{record['job']}"
        )
        assert status == 200 and job["kind"] == "run"

    def test_telemetry_route(self, server):
        _request("POST", server.url + "/v1/jobs", RUN)
        status, payload = _request("GET", server.url + "/v1/telemetry")
        assert status == 200
        assert payload["service"]["submitted"] >= 1
        assert "resilience" in payload


class TestErrorStatuses:
    def test_unknown_route_is_404(self, server):
        status, _ = _request("GET", server.url + "/nope")
        assert status == 404

    def test_unknown_job_is_404(self, server):
        status, _ = _request("GET", server.url + "/v1/jobs/feedc0de")
        assert status == 404

    def test_result_before_done_is_409(self, tmp_path):
        # workers=0: the job is admitted but never executed.
        srv = ServiceServer(
            host="127.0.0.1", port=0,
            config=ServiceConfig(root=tmp_path / "svc", workers=0,
                                 executor=_executor),
        )
        thread = threading.Thread(target=srv.httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            _, record = _request("POST", srv.url + "/v1/jobs", RUN)
            status, _ = _request(
                "GET", f"{srv.url}/v1/jobs/{record['job']}/result"
            )
            assert status == 409
        finally:
            srv.httpd.shutdown()
            srv.httpd.server_close()
            thread.join(timeout=10)

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_bad_shape_is_400(self, server):
        status, _ = _request(
            "POST", server.url + "/v1/jobs", {"kind": "run"}
        )
        assert status == 400

    def test_unknown_kind_is_400(self, server):
        status, _ = _request(
            "POST", server.url + "/v1/jobs",
            {"kind": "meltdown", "params": {}},
        )
        assert status == 400

    def test_oversized_body_is_413(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=b"x", method="POST"
        )
        request.add_header("Content-Length", str(MAX_BODY_BYTES + 1))
        # urllib would re-measure the body, so speak raw HTTP instead.
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            reply = sock.recv(200).decode("utf-8", "replace")
        assert "413" in reply.split("\r\n")[0]


class TestDisconnects:
    def test_half_sent_body_is_counted_and_survived(self, server):
        before = SERVICE_STATS.get("client_disconnects")
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 512\r\n\r\n{\"kind\""
            )
        deadline = 50
        while (
            SERVICE_STATS.get("client_disconnects") == before
            and deadline > 0
        ):
            time.sleep(0.05)
            deadline -= 1
        assert SERVICE_STATS.get("client_disconnects") > before
        status, _ = _request("GET", server.url + "/healthz")
        assert status == 200


class TestKeepAlive:
    def test_reused_connection_does_not_stall(self, server):
        # Headers and body are separate writes; without TCP_NODELAY a
        # keep-alive client's delayed ACK holds each body ~40 ms.
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.2


class TestLifecycle:
    def test_ready_file_handshake(self, server, tmp_path):
        ready = tmp_path / "ready.json"
        server.write_ready_file(str(ready))
        handshake = json.loads(ready.read_text())
        assert handshake["url"] == server.url
        assert handshake["port"] == server.address[1]

    def test_request_shutdown_is_idempotent(self, tmp_path):
        srv = ServiceServer(
            host="127.0.0.1", port=0,
            config=ServiceConfig(root=tmp_path / "svc", workers=0,
                                 executor=_executor),
        )
        thread = threading.Thread(target=srv.httpd.serve_forever,
                                  daemon=True)
        thread.start()
        srv.request_shutdown()
        srv.request_shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        srv.httpd.server_close()
