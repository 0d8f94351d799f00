"""Smoke-size checks of the benchmark itself.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  The simulation workloads are cut down to one cheap artifact and
the serve workload to a one-second schedule.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import catalog, run, serve, sim
from perfbench.spans import Patcher, SpanRecorder, sim_probes

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _printed(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return record, result


@pytest.fixture
def one_artifact(monkeypatch):
    """Shrink paper-figs to fig06 (about half a second per pass)."""
    monkeypatch.setitem(sim.WORKLOADS, "paper-figs", (("fig06",), None))


def _main(capsys, *args: str) -> tuple[int, dict, dict]:
    code = run.main(["--workload", "paper-figs", "--seconds", "1", *args])
    record, result = _printed(capsys.readouterr().out)
    return code, record, result


def test_catalog_matches_benchmark_json():
    assert _declared("end_to_end") == catalog.END_TO_END
    assert _declared("per_layer") == catalog.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_sim_prints_every_declared_metric(one_artifact, capsys, trace):
    code, record, result = _main(capsys, "--seed", "2024", "--trace", trace)
    assert code == 0 and result["correct"], record["problems"]
    section = "per_layer" if trace == "1" else "end_to_end"
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(section)
    assert record["host"]["nproc"] >= 1 and record["source_digest"]
    assert record["digests"]["fig06"] == sim.load_golden("fig06")["digest"]
    if trace == "1":
        assert result["metrics"]["flowsim.runs"]["value"] > 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_serve_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "5", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record, result = _printed(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(section)
    assert record["digests"]["var@golden"] == sim.load_golden("var")["digest"]
    assert not (ROOT / ".perfbench").exists() or not any((ROOT / ".perfbench").iterdir())


def test_planted_digest_mismatch_fails(one_artifact, capsys, monkeypatch):
    real = sim.load_golden

    def planted(exp_id):
        return {**real(exp_id), "digest": "0" * 64}

    monkeypatch.setattr(sim, "load_golden", planted)
    code, record, result = _main(capsys, "--seed", "2024", "--trace", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1  # every pass mismatched
    assert result["metrics"]["success_ratio"]["value"] == 0.0
    assert "digest" in record["problems"][0]


def test_other_seed_checks_shape_not_digest(one_artifact, capsys, monkeypatch):
    real = sim.load_golden
    monkeypatch.setattr(
        sim, "load_golden", lambda exp_id: {**real(exp_id), "digest": "0" * 64}
    )
    code, record, _ = _main(capsys, "--seed", "7", "--trace", "0")
    assert code == 0, record["problems"]
    assert len(record["digests"]["fig06"]) == 64
    monkeypatch.setattr(
        sim, "load_golden", lambda exp_id: {**real(exp_id), "n_rows": 99}
    )
    code, record, _ = _main(capsys, "--seed", "7", "--trace", "0")
    assert code == 1 and "rows" in record["problems"][0]


def test_read_with_wrong_digest_is_a_failure():
    req = serve.Req(0.0, "get_result", "GET", "/results/abc", expect="abc")
    good = serve.Record(req, 0.0, 0.0, 0.001, 200, {"digest": "abc"}, None)
    bad = serve.Record(req, 0.0, 0.0, 0.001, 200, {"digest": "abd"}, None)
    assert serve.check_record(good) is None
    assert "digest" in serve.check_record(bad)


def test_open_loop_times_from_due_time():
    schedule = [serve.Req(i * 0.02, "healthz", "GET", "/healthz") for i in range(5)]

    def send(req):
        if req.offset == pytest.approx(0.02):
            time.sleep(0.2)  # a stalled request
        return 200, {"ok": True}

    records = serve.open_loop(schedule, send, time.perf_counter())
    stalled, behind = records[1], records[2]
    assert stalled.latency >= 0.2
    # The next request was due 20 ms after the stalled one and could only
    # go once it returned: its own round trip is instant, yet its latency
    # carries the wait.
    assert behind.done - behind.sent < 0.05
    assert behind.latency >= 0.15
    assert behind.sent - behind.due >= 0.15


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("inner"):
            time.sleep(0.03)
    spans = rec.summary()
    count, total, own = spans["outer"]
    assert count == 1 and total >= 0.05
    assert own == pytest.approx(total - spans["inner"][1])
    assert spans["inner"][2] == pytest.approx(spans["inner"][1])


def test_wrapping_a_missing_boundary_raises():
    class Layer:
        def step(self):
            return 1

    patch = Patcher()
    with pytest.raises(AttributeError):
        patch.wrap(Layer, "renamed_step", lambda fn: fn)
    assert patch.installed == []


def test_sim_probes_wrap_every_boundary_and_restore():
    with sim_probes(SpanRecorder()) as patch:
        wrapped = list(patch.installed)
        for owner, attr in wrapped:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    # plan, execute, harness, flowsim, 4 hooks x 2 kernels, maxmin,
    # tick_draw, concentrate, offer, record_tick, CC feedback, the shard
    # block placement, shard run, 2 transports, and each loss_one.
    assert len(wrapped) >= 22
    for owner, attr in wrapped:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)


def test_a_layer_left_unmeasured_is_an_error():
    outcome = sim.Outcome(attempted=1)
    outcome.metrics = {name: 1.0 for name in catalog.measured_layers("paper-figs")}
    assert run.result_line("paper-figs", outcome, trace=True)["correct"]
    del outcome.metrics["shard.wf_s"]
    with pytest.raises(RuntimeError, match="shard.wf_s"):
        run.result_line("paper-figs", outcome, trace=True)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-figs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
