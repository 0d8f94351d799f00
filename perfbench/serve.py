"""The ``serve-mixed`` workload: reads and writes against a live daemon.

``repro serve`` runs as its own process on a fresh cache directory with
``min(2, nproc)`` pool workers.  After a warm-up that writes the
configs the reads will ask for (and the golden ``var`` config), one
process drives an open-loop, seeded, fixed-rate schedule over two
keep-alive connections:

* the **read** connection sends ``POST /experiments`` cache hits and
  ``GET /results/<digest>``, half each;
* the **write** connection sends ``POST /experiments`` for fresh, cheap
  ``var`` configs that differ only in seed: each misses, runs in the
  pool and is stored in the cache.  Between two writes it sends one
  ``GET /healthz`` probe, the HTTP framing floor; probes are reported
  per route only and stay out of the read, write and ``op_*`` figures.

The write rate keeps the pool far below capacity, so no backlog grows.
Every request is timed from the moment it was due, so a stall also
charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core import units
from repro.core.rng import RngFactory

from perfbench.host import ROOT, SETUP_SAMPLES, child_env, now, percentile, tree_peak_mb
from perfbench.sim import GOLDEN_SEED, Outcome, golden_config, load_golden

# The rates give 1000 reads and 100 writes in a run of the declared
# run_seconds (16 s): enough reads for p99 to have 10 samples beyond
# it, and writes for p90.  100 writes of about 50 ms each keep two pool
# workers about 15% busy.
READ_RATE = 62.5  # requests per second on the read connection
WRITE_RATE = 6.25  # misses per second on the write connection
WARM_KEYS = 4  # configs reads target, as in the legacy serve-load bench
WORKERS = min(2, os.cpu_count() or 1)


def write_config(seed: int) -> dict:
    """A cheap ``var`` config: one 1 s repetition."""
    return {"repetitions": 1, "duration": 1.0, "omit": 0.5, "tick": 0.008, "seed": seed}


@dataclass(frozen=True)
class Req:
    offset: float  # seconds after the schedule starts
    route: str  # healthz | get_result | post_hit | post_miss
    method: str
    path: str
    body: dict | None = None
    expect: str | None = None  # digest a read must return


@dataclass
class Record:
    req: Req
    due: float
    sent: float
    done: float
    status: int
    doc: dict | None
    error: str | None

    @property
    def latency(self) -> float:
        return self.done - self.due


def open_loop(
    schedule: list[Req], send: Callable[[Req], tuple[int, dict]], start: float
) -> list[Record]:
    """Send each request at ``start + offset``, or at once when late.

    Latency runs from the due time, not the send time: a slow reply
    delays the requests behind it, and they are charged for the wait.
    """
    records = []
    for req in schedule:
        due = start + req.offset
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        sent = now()
        try:
            status, doc = send(req)
            error = None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, doc, error = 0, None, repr(exc)
        records.append(
            Record(req, due, sent, now(), status, doc, error)
        )
    return records


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def send(self, req: Req) -> tuple[int, dict]:
        body = None if req.body is None else json.dumps(req.body).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.http.request(req.method, req.path, body=body, headers=headers)
            reply = self.http.getresponse()
            data = reply.read()
        except (OSError, http.client.HTTPException):
            self.http.close()  # the next request reconnects
            raise
        return reply.status, json.loads(data) if data else {}

    def close(self) -> None:
        self.http.close()


class Daemon:
    """A ``repro serve`` process in its own session."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Launch; returns seconds until ``GET /healthz`` answers 200."""
        start = now()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        match = re.search(r"listening on http://[^:]+:(\d+)", self.proc.stdout.readline())
        if match is None:
            raise RuntimeError("repro serve did not report its port")
        self.port = int(match.group(1))
        deadline = start + timeout
        while now() < deadline:
            conn = Connection(self.port)
            try:
                status, _ = conn.send(Req(0.0, "healthz", "GET", "/healthz"))
                if status == 200:
                    return now() - start
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("repro serve never became healthy")

    def stop(self) -> None:
        """SIGINT (clean pool shutdown), then kill the session if it lingers."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        self.proc = None


def build_schedule(
    seed: int, seconds: float, warm: list[tuple[dict, str]], write_seeds: list[int]
) -> tuple[list[Req], list[Req]]:
    """The seeded read and write schedules (deterministic in ``seed``)."""
    gen = RngFactory(seed=seed).stream("perfbench:serve-reads")
    reads = []
    for i in range(round(READ_RATE * seconds)):
        config, digest = warm[int(gen.integers(len(warm)))]
        offset = i / READ_RATE
        if gen.random() < 0.5:
            reads.append(
                Req(offset, "get_result", "GET", f"/results/{digest}", expect=digest)
            )
        else:
            body = {"exp_id": "var", "config": config}
            reads.append(Req(offset, "post_hit", "POST", "/experiments", body, digest))
    writes = []
    for i, s in enumerate(write_seeds):
        writes.append(Req(i / WRITE_RATE, "healthz", "GET", "/healthz"))
        writes.append(
            Req(
                (i + 0.5) / WRITE_RATE, "post_miss", "POST", "/experiments",
                {"exp_id": "var", "config": write_config(s)},
            )
        )
    return reads, writes


def check_record(rec: Record) -> str | None:
    """Why a reply is wrong, or None."""
    req, doc = rec.req, rec.doc
    if rec.error is not None:
        return f"{req.route} {req.path}: {rec.error}"
    if rec.status != 200:
        return f"{req.route} {req.path}: HTTP {rec.status} {doc}"
    if req.route == "healthz":
        return None if doc.get("ok") is True else f"healthz: {doc}"
    if req.expect is not None and doc.get("digest") != req.expect:
        return f"{req.route}: digest {doc.get('digest')} != written {req.expect}"
    if req.route == "post_hit" and doc.get("cached") is not True:
        return "post_hit: not served from the cache"
    if req.route == "post_miss" and (
        doc.get("cached") is not False or len(doc.get("digest", "")) != 64
    ):
        return f"post_miss: bad reply {doc}"
    return None


def _run_schedule(
    port: int, reads: list[Req], writes: list[Req]
) -> list[Record]:
    start = now() + 0.1
    results: dict[str, list[Record]] = {}

    def drive(name: str, schedule: list[Req]) -> None:
        conn = Connection(port)
        try:
            results[name] = open_loop(schedule, conn.send, start)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=drive, args=("reads", reads)),
        threading.Thread(target=drive, args=("writes", writes)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results["reads"] + results["writes"]


def _ms(values: list[float], q: float) -> float:
    return units.seconds_to_ms(percentile(values, q)) if values else 0.0


def layer_metrics(records: list[Record], stats: dict) -> dict[str, float]:
    """Per-route client latencies, the daemon's counters, generator lag."""
    by_route: dict[str, list[float]] = {}
    for rec in records:
        by_route.setdefault(rec.req.route, []).append(rec.latency)
    reads = [r.latency for r in records if r.req.route in ("get_result", "post_hit")]
    writes = [r for r in records if r.req.route == "post_miss" and r.doc]
    exec_s = [r.doc.get("elapsed", 0.0) for r in writes]
    wait_s = [r.latency - e for r, e in zip(writes, exec_s)]
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    return {
        "serve.read_p50_ms": _ms(reads, 50),
        "serve.read_p99_ms": _ms(reads, 99),
        "serve.write_p50_ms": _ms([r.latency for r in writes], 50),
        "serve.write_p90_ms": _ms([r.latency for r in writes], 90),
        "serve.healthz_p50_ms": _ms(by_route.get("healthz", []), 50),
        "serve.get_result_p50_ms": _ms(by_route.get("get_result", []), 50),
        "serve.post_hit_p50_ms": _ms(by_route.get("post_hit", []), 50),
        "serve.post_miss_p50_ms": _ms(by_route.get("post_miss", []), 50),
        "serve.write_exec_p50_ms": _ms(exec_s, 50),
        "serve.write_wait_p50_ms": _ms(wait_s, 50),
        "serve.hits": hits,
        "serve.misses": misses,
        "serve.dispatched": stats.get("dispatched", 0),
        "serve.pool_rebuilds": stats.get("pool_rebuilds", 0),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "loadgen.sent": len(records),
        "loadgen.lag_p99_ms": _ms([r.sent - r.due for r in records], 99),
    }


def _warm_up(conn: Connection, configs: list[dict], outcome: Outcome) -> list:
    """Write ``configs`` one by one; returns (config, digest) pairs."""
    warm = []
    for config in configs:
        body = {"exp_id": "var", "config": config}
        (rec,) = open_loop(
            [Req(0.0, "post_miss", "POST", "/experiments", body)],
            conn.send,
            now(),
        )
        outcome.attempted += 1
        problem = check_record(rec)
        if problem is None:
            warm.append((config, rec.doc["digest"]))
        else:
            outcome.fail(f"warm-up {problem}")
    return warm


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    outcome = Outcome()
    run_dir = ROOT / ".perfbench" / f"serve-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Distinct config seeds: every warm-up and schedule write misses.
    seeds = [
        int(s) + 1
        for s in RngFactory(seed=seed)
        .stream("perfbench:serve-seeds")
        .choice(2**31 - 1, size=WARM_KEYS + round(WRITE_RATE * seconds), replace=False)
    ]
    daemon = None
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(run_dir / "cache")
            setup.append(daemon.start())
        conn = Connection(daemon.port)
        try:
            golden = golden_config(GOLDEN_SEED).to_dict()
            warm = _warm_up(
                conn, [golden] + [write_config(s) for s in seeds[:WARM_KEYS]], outcome
            )
            if outcome.failed:
                return outcome
            if warm[0][1] != load_golden("var")["digest"]:
                outcome.fail("warm-up: golden config digest != tests/golden/var.json")
            reads, writes = build_schedule(seed, seconds, warm, seeds[WARM_KEYS:])
            records = _run_schedule(daemon.port, reads, writes)
            _, stats = conn.send(Req(0.0, "stats", "GET", "/stats"))
        finally:
            conn.close()
        peak_mb = tree_peak_mb(daemon.proc.pid)
        for rec in records:
            outcome.attempted += 1
            problem = check_record(rec)
            if problem is not None:
                outcome.fail(problem)
        n_hits = sum(r.route == "post_hit" for r in reads)
        n_misses = len(warm) + sum(r.route == "post_miss" for r in writes)
        if (stats.get("hits"), stats.get("misses"), stats.get("dispatched")) != (
            n_hits, n_misses, n_misses
        ):
            outcome.fail(
                f"/stats hits={stats.get('hits')} misses={stats.get('misses')} "
                f"dispatched={stats.get('dispatched')}, expected "
                f"{n_hits}/{n_misses}/{n_misses}"
            )
        outcome.digests = {"var@golden": warm[0][1]}
        latencies = [r.latency for r in records if r.req.route != "healthz"]
        if trace:
            # The client keeps these per-request records in every run;
            # the traced run installs nothing more, so it costs nothing.
            outcome.metrics = layer_metrics(records, stats)
            outcome.metrics["trace.overhead_ratio"] = 1.0
        else:
            outcome.metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": max(r.done for r in records) - min(r.due for r in records),
                "peak_rss_mb": peak_mb,
                "op_p50_ms": _ms(latencies, 50),
                "op_p95_ms": _ms(latencies, 95),
            }
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    return outcome
