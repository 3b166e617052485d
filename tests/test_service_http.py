"""Wire-level tests: the asyncio HTTP/SSE frontend on a real socket."""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.core.config import PaperConfig
from repro.service import (
    DiscoveryApp,
    ServiceThread,
    SteadyStateWorld,
    WorldConfig,
)


@pytest.fixture(scope="module")
def service():
    world = SteadyStateWorld(
        WorldConfig(base=PaperConfig(n_devices=32, seed=6))
    )
    with ServiceThread(DiscoveryApp(world)) as svc:
        yield svc


def fetch(svc, path: str):
    with urllib.request.urlopen(svc.url + path, timeout=10) as resp:
        return resp.status, resp.read()


class TestHttpFrontend:
    def test_health_over_the_wire(self, service):
        status, body = fetch(service, "/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        assert body.endswith(b"\n")

    def test_post_step_over_the_wire(self, service):
        req = urllib.request.Request(
            service.url + "/world/step",
            data=b'{"steps": 1}',
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            doc = json.loads(resp.read())
        assert doc["stepped"] == 1

    def test_error_statuses_cross_the_wire(self, service):
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(service, "/near/9999")
        assert exc.value.code == 404
        assert b"unknown UE" in exc.value.read()

    def test_keep_alive_serves_sequential_requests(self, service):
        host, port = service.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            for _ in range(3):
                sock.sendall(
                    b"GET /sync HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(4096)
                assert head.startswith(b"HTTP/1.1 200 OK")
                headers, _, rest = head.partition(b"\r\n\r\n")
                length = int(
                    [
                        ln.split(b":")[1]
                        for ln in headers.split(b"\r\n")
                        if ln.lower().startswith(b"content-length")
                    ][0]
                )
                body = rest
                while len(body) < length:
                    body += sock.recv(4096)
                assert json.loads(body[:length])["fragments"] >= 1

    def test_sse_follow_streams_frames(self, service):
        # ensure frames exist, then read a bounded follow stream
        req = urllib.request.Request(
            service.url + "/world/step", data=b"", method="POST"
        )
        urllib.request.urlopen(req, timeout=10).read()
        with urllib.request.urlopen(
            service.url + "/events?follow=1&since=0&max_frames=2", timeout=10
        ) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            data = resp.read().decode()
        frames = [f for f in data.split("\n\n") if f]
        assert len(frames) == 2
        assert frames[0].startswith("id: 0\nevent: ")

    def test_internal_error_is_500_and_survivable(self, service):
        original = service.app.world.sync_state
        service.app.world.sync_state = lambda: 1 / 0  # type: ignore[assignment]
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(service, "/sync")
            assert exc.value.code == 500
            assert b"internal" in exc.value.read()
        finally:
            service.app.world.sync_state = original
        status, _ = fetch(service, "/sync")  # server kept serving
        assert status == 200

    def test_os_assigned_port_is_reported(self, service):
        port = int(service.url.rsplit(":", 1)[1])
        assert port > 0


def raw_exchange(svc, payload: bytes) -> bytes:
    """Send raw bytes on a fresh connection; read until the server closes."""
    host, port = svc.url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(payload)
        data = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return data
            data += chunk


class TestMalformedInput:
    """Unframeable requests and bad SSE parameters answer a JSON 400 —
    never a dropped connection or a truncated 200 — and the server keeps
    serving afterwards."""

    def _assert_json_400(self, service, reply: bytes, needle: bytes) -> None:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request"), reply
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert needle in json.dumps(json.loads(body)["error"]).encode()
        status, _ = fetch(service, "/health")
        assert status == 200

    @pytest.mark.parametrize("length", [b"abc", b"-1", b"1.5", b"\xd9\xa3"])
    def test_bad_content_length(self, service, length):
        reply = raw_exchange(
            service,
            b"POST /world/step HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + length
            + b"\r\n\r\n{}",
        )
        self._assert_json_400(service, reply, b"Content-Length")

    @pytest.mark.parametrize(
        "query,needle",
        [
            (b"since=abc", b"since"),
            (b"since=-3", b"since"),
            (b"max_frames=two", b"max_frames"),
            (b"max_frames=0", b"max_frames"),
        ],
    )
    def test_bad_sse_parameters(self, service, query, needle):
        reply = raw_exchange(
            service,
            b"GET /events?follow=1&" + query + b" HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert b"text/event-stream" not in reply  # no stream head first
        self._assert_json_400(service, reply, needle)
