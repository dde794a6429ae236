"""The HTTP surface: a real ServeServer on an ephemeral port, driven
through ServeClient.  Admission control must answer 429 + Retry-After,
never hang; everything else maps to structured JSON."""

import asyncio
import json
import socket
import threading
import urllib.request

import pytest

from repro.serve.client import QueueFull, ServeClient, ServeError
from repro.serve.server import ServeServer
from repro.serve.service import MappingService


class _Served:
    """A server on port 0 with its event loop on a daemon thread."""

    def __init__(self, service: MappingService) -> None:
        self.server = ServeServer(service, port=0)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert ready.wait(10.0), "server did not start"
        self.client = ServeClient(port=self.server.port, timeout=30.0)

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        self.loop.close()


@pytest.fixture()
def served(tmp_path):
    box = _Served(MappingService(str(tmp_path / "state"), max_queue=3))
    yield box.client
    box.close()


@pytest.fixture()
def queued_only(tmp_path, monkeypatch):
    """A served instance whose scheduler lanes never start: submissions
    pile up deterministically, which is what admission tests need."""
    service = MappingService(str(tmp_path / "q-state"), max_queue=3)
    monkeypatch.setattr(service, "start", lambda: None)
    box = _Served(service)
    yield box.client
    box.close()


class TestHealth:
    def test_healthz(self, served):
        health = served.healthz()
        assert health["status"] == "ok"
        assert health["journal"]["seq"] == 0

    def test_readyz_reports_capacity(self, queued_only, quick_blif):
        assert queued_only.readyz()["ready"] is True
        for _ in range(3):
            queued_only.submit(blif=quick_blif, algorithm="flowsyn-s", k=4)
        with pytest.raises(ServeError) as info:
            queued_only.readyz()
        assert info.value.status == 503
        assert info.value.body["ready"] is False


class TestJobs:
    def test_submit_wait_result_round_trip(self, served, quick_blif):
        circuit_id = served.upload_circuit(quick_blif)
        view = served.submit(
            circuit_id=circuit_id, algorithm="turbomap", k=4
        )
        assert view["state"] in ("queued", "running")
        done = served.wait(view["id"], timeout=120.0)
        assert done["state"] == "done"
        artifact = served.result(view["id"])
        assert artifact["signature"] == done["result"]["signature"]
        assert artifact["run"]["job"]["id"] == view["id"]

    def test_inline_blif_submission(self, served, other_blif):
        view = served.submit(blif=other_blif, algorithm="flowsyn-s", k=4)
        done = served.wait(view["id"], timeout=120.0)
        assert done["state"] == "done"

    def test_suite_fans_out_per_circuit_and_algorithm(
        self, queued_only, quick_blif
    ):
        views = queued_only.submit_suite(
            [{"blif": quick_blif}], ["turbomap", "flowsyn-s"], k=4
        )
        assert len(views) == 2
        algos = {view["spec"]["algorithm"] for view in views}
        assert algos == {"turbomap", "flowsyn-s"}

    def test_cancel_over_http(self, queued_only, quick_blif):
        view = queued_only.submit(
            blif=quick_blif, algorithm="turbomap", k=4
        )
        cancelled = queued_only.cancel(view["id"])
        assert cancelled["cancel_requested"] is True

    def test_bounded_wait_returns_live_state(self, queued_only, quick_blif):
        # No lanes running: the wait can never complete, so the bounded
        # server-side wait must return the live (queued) view, not hang.
        view = queued_only.submit(
            blif=quick_blif, algorithm="turbomap", k=4
        )
        live = queued_only.status(view["id"])
        assert live["state"] == "queued"
        out = queued_only._request(
            "GET", f"/jobs/{view['id']}?wait=0.2"
        )
        assert out["state"] == "queued"

    def test_events_expose_the_job_event_log(self, queued_only, quick_blif):
        view = queued_only.submit(blif=quick_blif, algorithm="turbomap", k=4)
        events = queued_only.events()
        accepts = [e for e in events if e["type"] == "accept"]
        assert [e["job"] for e in accepts] == [view["id"]]


class TestAdmissionOverHttp:
    def test_429_with_retry_after_header(self, queued_only, quick_blif):
        circuit_id = queued_only.upload_circuit(quick_blif)
        for _ in range(3):
            queued_only.submit(circuit_id=circuit_id, k=4)
        with pytest.raises(QueueFull) as info:
            queued_only.submit(circuit_id=circuit_id, k=4)
        assert info.value.status == 429
        assert info.value.body["error"] == "queue_full"
        assert info.value.retry_after >= 1.0
        # The header is there too, for clients that only read headers.
        request = urllib.request.Request(
            queued_only.base + "/jobs",
            data=b'{"circuit_id": "%s"}' % circuit_id.encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10.0)
            pytest.fail("expected HTTP 429")
        except urllib.error.HTTPError as exc:
            assert exc.code == 429
            assert int(exc.headers["Retry-After"]) >= 1
            exc.close()


class TestOversizeUpload:
    def test_oversize_content_length_is_413_and_closes(self, queued_only):
        # The server must answer 413 *without* reading the oversized
        # body, and close the connection so the unread bytes can never
        # desync a keep-alive stream.
        port = int(queued_only.base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /circuits HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: 999999999999\r\n"
                b"\r\n"
                b".model partial"  # a sliver of the body, never the rest
            )
            sock.settimeout(10.0)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed: the desync window is gone
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["error"] == "payload_too_large"
        assert payload["content_length"] == 999999999999


class TestErrorMapping:
    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServeError) as info:
            served.status("j999999")
        assert info.value.status == 404

    def test_bad_spec_is_400(self, served, quick_blif):
        circuit_id = served.upload_circuit(quick_blif)
        with pytest.raises(ServeError) as info:
            served.submit(circuit_id=circuit_id, fidelity="max")
        assert info.value.status == 400
        assert "unknown job spec field" in info.value.body["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kernel", "bogus"),
            ("engine", "psychic"),
            ("probe_timeout", "x"),
            ("max_copies", 0),
            ("k", 2.5),
            ("k", True),
            ("workers", 1.5),
            ("workers", 1),
            ("warm_start", False),
            ("deadline", -5),
            ("check", "no"),
        ],
    )
    def test_malformed_spec_is_400_and_never_journaled(
        self, served, quick_blif, field, value
    ):
        circuit_id = served.upload_circuit(quick_blif)
        with pytest.raises(ServeError) as info:
            served.submit(circuit_id=circuit_id, **{field: value})
        assert info.value.status == 400
        assert field in info.value.body["message"]
        assert not any(e["type"] == "accept" for e in served.events())
        assert served.jobs() == []

    def test_unknown_circuit_is_400(self, served):
        with pytest.raises(ServeError) as info:
            served.submit(circuit_id="not-a-circuit")
        assert info.value.status == 400

    def test_unknown_route_is_404(self, served):
        with pytest.raises(ServeError) as info:
            served._request("GET", "/totally/elsewhere")
        assert info.value.status == 404

    def test_wrong_method_is_405(self, served):
        with pytest.raises(ServeError) as info:
            served._request("DELETE", "/jobs")
        assert info.value.status == 405
