"""End-to-end tests for the ``repro serve`` daemon.

One live server per module (real sockets, real worker pool) exercised
through :class:`~repro.serve.client.ServeClient`.  The tests pin the
acceptance contract: digest parity with the batch runner, cache-hit
answers that never touch the pool, single-flight coalescing of
identical in-flight configs, O(1) result lookup, and SSE trace tails.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses

import pytest

from repro.experiments import run_experiment
from repro.serve import ServeClient, ServeClientError, ServeConfig, running_server

from tests._golden import GOLDEN_CONFIG, load_golden


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(
        port=0,  # ephemeral — parallel test runs must not collide
        workers=2,
        cache_dir=tmp_path_factory.mktemp("serve-cache"),
    )
    with running_server(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.config.host, server.port)


class TestHealthAndStats:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["ok"] is True
        assert doc["experiments"] >= 26
        assert doc["workers"] == 2

    def test_stats_shape(self, client):
        doc = client.stats()
        for field in (
            "requests", "submitted", "hits", "misses", "coalesced",
            "in_flight", "dispatched", "pool_rebuilds", "cache",
        ):
            assert field in doc


class TestSubmit:
    def test_cold_submit_matches_direct_run_digest(self, client):
        # The acceptance invariant: a digest served by the daemon is
        # byte-identical to the batch runner's for the same config.
        doc = client.submit("var", config=GOLDEN_CONFIG)
        assert doc["cached"] is False and doc["coalesced"] is False
        assert doc["digest"] == load_golden("var")["digest"]
        assert doc["digest"] == run_experiment("var", GOLDEN_CONFIG).digest()

    def test_warm_resubmit_is_a_cache_hit(self, client):
        before = client.stats()
        doc = client.submit("var", config=GOLDEN_CONFIG)
        after = client.stats()
        assert doc["cached"] is True
        assert doc["digest"] == load_golden("var")["digest"]
        assert after["hits"] == before["hits"] + 1
        # A hit answers from storage without dispatching to the pool.
        assert after["dispatched"] == before["dispatched"]

    def test_identical_inflight_submits_coalesce(self, client):
        # A fresh config (seed bump) so neither request can be a cache
        # hit: the two must collapse onto one underlying execution.
        config = dataclasses.replace(GOLDEN_CONFIG, seed=GOLDEN_CONFIG.seed + 1)
        before = client.stats()
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futs = [
                pool.submit(client.submit, "var", config) for _ in range(2)
            ]
            docs = [f.result() for f in futs]
        after = client.stats()
        assert docs[0]["digest"] == docs[1]["digest"]
        assert sorted(d["coalesced"] for d in docs) == [False, True]
        assert after["coalesced"] == before["coalesced"] + 1
        assert after["dispatched"] == before["dispatched"] + 1

    def test_profile_submission(self, client):
        doc = client.submit("var", profile="quick")
        assert doc["digest"]

    def test_unknown_experiment_is_404(self, client):
        with pytest.raises(ServeClientError) as caught:
            client.submit("fig99", config=GOLDEN_CONFIG)
        assert caught.value.status == 404

    def test_bad_config_is_400(self, client):
        with pytest.raises(ServeClientError) as caught:
            client.submit("var", config={"repetitions": "many"})
        assert caught.value.status == 400

    def test_missing_exp_id_is_400(self, client):
        with pytest.raises(ServeClientError) as caught:
            client._request("POST", "/experiments", {"config": {}})
        assert caught.value.status == 400


class TestResults:
    def test_lookup_by_digest(self, client):
        digest = client.submit("var", config=GOLDEN_CONFIG)["digest"]
        doc = client.result(digest)
        assert doc["digest"] == digest
        assert doc["exp_id"] == "var"
        assert doc["result"] == run_experiment("var", GOLDEN_CONFIG).to_dict()

    def test_lookup_by_cache_key(self, client):
        submitted = client.submit("var", config=GOLDEN_CONFIG)
        doc = client.result(submitted["key"])
        assert doc["digest"] == submitted["digest"]

    def test_unknown_digest_is_404(self, client):
        with pytest.raises(ServeClientError) as caught:
            client.result("f" * 64)
        assert caught.value.status == 404


class TestTraceTail:
    def test_traced_run_streams_header_events_end(self, client):
        doc = client.submit("var", config=GOLDEN_CONFIG, trace=True)
        assert doc["digest"] == load_golden("var")["digest"]  # unchanged
        frames = client.tail(doc["digest"])
        events = [f["event"] for f in frames]
        assert events[0] == "header"
        assert events[-1] == "end"
        assert events.count("message") >= 1
        # Every message frame is one canonical JSONL trace line.
        for frame in frames:
            if frame["event"] == "message":
                assert isinstance(frame["data"], dict)

    def test_limit_truncates_the_stream(self, client):
        doc = client.submit("var", config=GOLDEN_CONFIG, trace=True)
        frames = client.tail(doc["digest"], limit=1)
        assert [f["event"] for f in frames if f["event"] == "message"] == [
            "message"
        ]

    def test_untraced_digest_has_no_tail(self, client):
        # A config that only ever ran untraced (same key as a traced
        # run would legitimately have a tail).
        config = dataclasses.replace(GOLDEN_CONFIG, seed=GOLDEN_CONFIG.seed + 2)
        digest = client.submit("var", config=config)["digest"]
        with pytest.raises(ServeClientError) as caught:
            client.tail(digest)
        assert caught.value.status == 404


class TestRouting:
    def test_post_to_get_only_route_is_405(self, client):
        with pytest.raises(ServeClientError) as caught:
            client._request("POST", "/healthz", {"x": 1})
        assert caught.value.status == 405

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as caught:
            client._request("GET", "/nope")
        assert caught.value.status == 404

    def test_unsupported_method_is_405(self, client):
        import http.client

        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request("DELETE", "/stats")
            assert conn.getresponse().status == 405
        finally:
            conn.close()


class TestConnectionReuse:
    def test_keep_alive_serves_many_requests_per_connection(self, server):
        import http.client
        import json as json_mod

        conn = http.client.HTTPConnection(
            server.config.host, server.port, timeout=30
        )
        try:
            answers = []
            for _ in range(5):
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                answers.append(json_mod.loads(reply.read()))
                assert reply.status == 200
            assert all(a["ok"] for a in answers)
        finally:
            conn.close()


#: Runs ``repro serve`` with every connection handler held inside
#: ``writer.wait_closed()`` (printing ``parked`` when it gets there), so
#: a SIGINT lands in the window right after a client hangs up every
#: time instead of by chance.
_HELD_OPEN = """
import asyncio, sys

async def parked(self):
    print("parked", flush=True)
    await asyncio.sleep(3600)

asyncio.StreamWriter.wait_closed = parked
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestShutdown:
    @pytest.mark.parametrize("held_open", [False, True], ids=["plain", "held-open"])
    def test_sigint_after_client_hangup_exits_cleanly(self, tmp_path, held_open):
        import re
        import signal
        import socket
        import subprocess
        import sys
        import threading

        entry = ["-c", _HELD_OPEN] if held_open else ["-m", "repro.cli"]
        proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0", "--workers", "1",
             "--cache-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Bounds the blocking reads below: a hung daemon is killed, its
        # pipes close, and the assertions fail instead of hanging.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            if held_open:
                assert proc.stdout.readline().strip() == "parked"
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert "shutting down" in out
