"""The three in-process simulation workloads.

* ``paper-figs`` regenerates the 13 paper artifacts (fig04-fig13,
  tab1-tab3).  Their 1-16-flow runs spend their time in the per-tick
  Python of the ``FlowSimulator`` driver; the shard engine, the cache,
  the pools and serve stay idle.
* ``massive-flows`` runs ``scale-flows`` (16 to 100k flows over four
  AmLight RTTs) on one in-process shard.  Per-flow arrays far exceed
  the CPU caches; the time goes to lane math, block drop placement,
  per-lost-flow loss reactions and per-block RNG stream set-up.
* ``sharded-flows`` runs the same experiment on two process shards:
  the only workload through the shared-memory transport, its barriers
  and its watchdog.

A pass produces the workload's artifacts as one campaign through
``repro.runner.run_experiments``, with one job and no cache, at the
golden harness config (2 reps, 4 s runs, 1 s omit, 8 ms ticks) with the
workload seed as the harness seed.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field

from repro.core import units

from perfbench.host import ROOT, now, percentile, sim_setup_seconds, tree_peak_mb
from perfbench.spans import Patcher, SpanRecorder, sim_layer_metrics, sim_probes

GOLDEN_DIR = ROOT / "tests" / "golden"

#: At this seed every artifact must match its committed golden digest.
GOLDEN_SEED = 2024

#: An untraced run makes passes until they have taken ``--seconds`` and
#: there are at least this many, and reports their median.  One
#: massive-flows pass takes longer than ``run_seconds``, so without the
#: floor a run would be one sample.
MIN_PASSES = 2

PAPER_IDS = (
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "tab1", "tab2", "tab3",
)

#: workload -> (experiment ids, shard count; None = ambient selection)
WORKLOADS: dict[str, tuple[tuple[str, ...], int | None]] = {
    "paper-figs": (PAPER_IDS, None),
    "massive-flows": (("scale-flows",), 1),
    "sharded-flows": (("scale-flows",), 2),
}


@dataclass
class Outcome:
    """What one benchmark run found: counts, problems, digests, metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def golden_config(seed: int):
    from repro.tools.harness import HarnessConfig

    return HarnessConfig(
        repetitions=2, duration=4.0, omit=1.0, tick=0.008, seed=seed
    )


def load_golden(exp_id: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{exp_id}.json").read_text())


def check_result(result, seed: int, golden: dict) -> list[str]:
    """Problems with one artifact: shape always, digest at the golden seed."""
    problems = []
    exp_id = result.exp_id
    if list(result.columns) != golden["columns"]:
        problems.append(f"{exp_id}: columns {list(result.columns)} != golden")
    if len(result.rows) != golden["n_rows"]:
        problems.append(
            f"{exp_id}: {len(result.rows)} rows, golden has {golden['n_rows']}"
        )
    for row in result.rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{exp_id}: non-finite {key}={value}")
    if seed == GOLDEN_SEED and result.digest() != golden["digest"]:
        problems.append(
            f"{exp_id}: digest {result.digest()[:16]} != golden "
            f"{golden['digest'][:16]}"
        )
    return problems


def run_pass(ids, config, shards, rec: SpanRecorder | None = None) -> list:
    """Produce every artifact once, as one ``repro run`` campaign."""
    from repro.runner import RunnerConfig, run_experiments

    runner = RunnerConfig(jobs=1, use_cache=False, shards=shards)
    if rec is None:
        return run_experiments(list(ids), config=config, runner=runner).results
    with rec.span("runner.run_experiments"):
        return run_experiments(list(ids), config=config, runner=runner).results


def _count_shard_crashes(patch: Patcher, crashes: list[int]) -> None:
    """Count ``ShardCrashError``\\ s raised: each is a crash-retry."""
    from repro.sim.shard import ShardCrashError

    def make(init):
        def counting_init(self, *args, **kwargs):
            crashes[0] += 1
            init(self, *args, **kwargs)

        return counting_init

    patch.wrap(ShardCrashError, "__init__", make)


def run(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    ids, shards = WORKLOADS[workload]
    config = golden_config(seed)
    goldens = {exp_id: load_golden(exp_id) for exp_id in ids}
    outcome = Outcome()
    crashes = [0]
    patch = Patcher()
    _count_shard_crashes(patch, crashes)

    def account(results: list, label: str) -> None:
        for result in results:
            outcome.attempted += 1
            for problem in check_result(result, seed, goldens[result.exp_id]):
                outcome.fail(f"{label}: {problem}")
            digest = result.digest()
            first = outcome.digests.setdefault(result.exp_id, digest)
            if digest != first:
                outcome.fail(f"{label}: {result.exp_id} digest changed between passes")

    try:
        if not trace:
            setup = sim_setup_seconds()
            passes: list[float] = []
            while sum(passes) < seconds or len(passes) < MIN_PASSES:
                start = now()
                results = run_pass(ids, config, shards)
                passes.append(now() - start)
                account(results, f"pass {len(passes)}")
            # One pass is one request for the workload's whole artifact
            # set, the way ``repro run`` asks for it.
            outcome.metrics = {
                "setup_s": setup,
                "wall_s": statistics.median(passes),
                "peak_rss_mb": tree_peak_mb(os.getpid()),
                "op_p50_ms": units.seconds_to_ms(percentile(passes, 50)),
                "op_p95_ms": units.seconds_to_ms(percentile(passes, 95)),
            }
        else:
            # An untimed pass first takes the lazy imports and first-run
            # warm-up, so the traced pass and the untraced pass it is
            # compared with both start warm.
            account(run_pass(ids, config, shards), "warm-up")
            rec = SpanRecorder()
            with sim_probes(rec):
                start = now()
                traced = run_pass(ids, config, shards, rec)
                traced_wall = now() - start
            start = now()
            account(run_pass(ids, config, shards), "untraced")
            plain_wall = now() - start
            for result in traced:
                if result.digest() != outcome.digests[result.exp_id]:
                    outcome.fail(f"traced: {result.exp_id} digest differs from untraced")
            outcome.attempted += len(traced)
            outcome.metrics = sim_layer_metrics(rec)
            outcome.metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    finally:
        patch.restore()
    for _ in range(crashes[0]):
        outcome.attempted += 1
        outcome.fail("shard worker crash-retry")
    return outcome
