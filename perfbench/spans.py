"""Spans around the program's public functions, recorded from outside.

The traced run swaps a handful of functions and methods for wrappers
that record a span (name, start, end, parent) and call through.  The
wrappers only observe: arguments and return values pass untouched, so
the traced run's digests must equal the untraced run's (the benchmark
checks it).  Spans stay in compact arrays in memory and are reduced to
per-layer metrics when the run ends.  A layer's self time is its span
time minus the time of its direct child spans.

Process shard workers are forked children: their own calls (the CC
batch, block drop placement) are not seen from the coordinator, so on
the sharded workload those layers read 0 and the coordinator's phase
spans hold compute plus barrier wait.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
from repro.core import units

from perfbench.host import now


class SpanRecorder:
    """Append-only span store; ``open``/``close`` nest.

    Every call it sees runs on the benchmark's one thread, so one stack
    of open spans gives each new span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        #: Call counts of functions wrapped without a span.
        self.counts: Counter = Counter()
        #: Quantities read off the wrapped objects (ticks, flows, ...).
        self.sums: defaultdict = defaultdict(float)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, kind: int) -> int:
        stack = self._stack
        idx = len(self.t0)
        self.kind.append(kind)
        self.parent.append(stack[-1] if stack else -1)
        self.t1.append(0.0)
        self.t0.append(now())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        """End span ``idx``; returns its duration."""
        end = now()
        self.t1[idx] = end
        self._stack.pop()
        return end - self.t0[idx]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, total seconds, self seconds)."""
        n = len(self.t0)
        if n == 0:
            return {}
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(
            self.t0, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        width = len(self.names)
        count = np.bincount(kind, minlength=width)
        total = np.bincount(kind, weights=dur, minlength=width)
        own = np.bincount(kind, weights=dur - child, minlength=width)
        return {
            name: (int(count[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }


class Patcher:
    """Swap attributes for wrappers and put the originals back."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []
        #: (owner, attribute) of every wrapper in place.
        self.installed: list[tuple[object, str]] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        A missing attribute raises ``AttributeError``: a boundary that
        was renamed or moved fails the traced run rather than letting
        its layer read 0.
        """
        original = getattr(owner, attr)
        if not isinstance(owner, type):
            self._undo.append(lambda: setattr(owner, attr, original))
        elif attr in vars(owner):
            original = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # inherited: restoring drops the override
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, make(original))
        self.installed.append((owner, attr))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.installed.clear()


def timed(rec: SpanRecorder, name: str) -> Callable:
    kind = rec.name_id(name)

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    return make


def counted(rec: SpanRecorder, name: str) -> Callable:
    counts = rec.counts

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def _ticks(profile) -> int:
    return int(round(profile.duration / profile.tick))


@contextmanager
def sim_probes(rec: SpanRecorder) -> Iterator[Patcher]:
    """Wrap the simulation stack's layer boundaries for one traced pass.

    If a boundary is missing, the wrappers already in place are taken
    out again before the ``AttributeError`` propagates.
    """
    patch = Patcher()
    try:
        _install_sim_probes(patch, rec)
        yield patch
    finally:
        patch.restore()


def _install_sim_probes(patch: Patcher, rec: SpanRecorder) -> None:
    import repro.runner.scheduler as scheduler
    import repro.runner.transport as transport
    import repro.sim.flowsim as flowsim
    import repro.sim.shard as shard
    import repro.tcp.cc.batch as cc_batch
    from repro.net.switch import SharedBufferQueue
    from repro.sim.kernels import ScalarKernel, VectorKernel
    from repro.sim.lossmodel import BurstModel
    from repro.sim.metrics import MetricsAccumulator
    from repro.tools.harness import TestHarness

    patch.wrap(scheduler, "plan_campaign", timed(rec, "runner.plan"))
    patch.wrap(transport, "execute_task", timed(rec, "runner.execute"))
    patch.wrap(TestHarness, "run", timed(rec, "harness.run"))

    flow_kind = rec.name_id("flowsim.run")

    def flowsim_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            ticks = _ticks(self.profile)
            rec.sums["flowsim.ticks"] += ticks
            rec.sums["flowsim.flow_ticks"] += ticks * len(self.flows)
            idx = rec.open(flow_kind)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.close(idx)

        return run

    patch.wrap(flowsim.FlowSimulator, "run", flowsim_run)
    for hook in ("pacing", "cpu_limits", "cc_feedback", "cpu_costs"):
        for cls in (ScalarKernel, VectorKernel):
            patch.wrap(cls, hook, timed(rec, f"kernels.{hook}"))
    patch.wrap(flowsim, "maxmin_allocate", timed(rec, "bottleneck.maxmin"))
    patch.wrap(BurstModel, "tick_draw", timed(rec, "lossmodel.tick_draw"))
    patch.wrap(flowsim, "concentrate_drops", timed(rec, "lossmodel.concentrate"))
    patch.wrap(SharedBufferQueue, "offer", timed(rec, "switch.offer"))
    patch.wrap(MetricsAccumulator, "record_tick", timed(rec, "metrics.record_tick"))
    patch.wrap(cc_batch.CcBatch, "feedback", timed(rec, "cc_batch.feedback"))
    for obj in vars(cc_batch).values():
        if isinstance(obj, type) and "loss_one" in vars(obj):
            patch.wrap(obj, "loss_one", counted(rec, "cc_batch.loss_one"))
    patch.wrap(shard, "_concentrate_block", counted(rec, "shard.concentrate"))

    # Shard coordinator: the run, the prep before its first phase, and
    # each phase by command.
    run_kind = rec.name_id("shard.run")
    phase_kinds = {
        getattr(shard, f"_CMD_{cmd}"): rec.name_id(f"shard.{cmd.lower()}")
        for cmd in ("CAPS", "WF", "SEND", "DROPS1", "FEEDBACK")
    }
    prep_start: list[float | None] = [None]

    def shard_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            ticks = _ticks(self.profile)
            flows = self.population.n
            prep_start[0] = now()
            idx = rec.open(run_kind)
            try:
                return fn(self, *args, **kwargs)
            finally:
                seconds = rec.close(idx)
                prep_start[0] = None
                rec.sums["shard.ticks"] += ticks
                rec.sums["shard.flow_ticks"] += ticks * flows
                if flows >= 100_000:
                    rec.sums["shard.ticks_100k"] += ticks
                    rec.sums["shard.run_s_100k"] += seconds

        return run

    def shard_phase(fn):
        @functools.wraps(fn)
        def phase(self, cmd, f0):
            started = prep_start[0]
            if started is not None:
                rec.sums["shard.prep_s"] += now() - started
                prep_start[0] = None
            idx = rec.open(phase_kinds[cmd])
            try:
                return fn(self, cmd, f0)
            finally:
                rec.close(idx)

        return phase

    patch.wrap(shard.ShardedFlowSimulator, "run", shard_run)
    for cls in (shard._InProcTransport, shard._SharedMemTransport):
        patch.wrap(cls, "phase", shard_phase)


def sim_layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of a traced simulation pass."""
    spans = rec.summary()

    def count(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    ticks = rec.sums["flowsim.ticks"]
    run_100k = rec.sums["shard.run_s_100k"]
    return {
        "runner.plan_s": total("runner.plan"),
        "runner.execute_s": total("runner.execute"),
        "runner.overhead_s": own("runner.run_experiments"),
        "harness.calls": count("harness.run"),
        "harness.self_s": own("harness.run"),
        "flowsim.runs": count("flowsim.run"),
        "flowsim.ticks": int(ticks),
        "flowsim.flow_ticks": int(rec.sums["flowsim.flow_ticks"]),
        "flowsim.run_s": total("flowsim.run"),
        "flowsim.us_per_tick": total("flowsim.run") / ticks / units.USEC if ticks else 0.0,
        "flowsim.driver_self_s": own("flowsim.run"),
        "kernels.pacing_s": total("kernels.pacing"),
        "kernels.cpu_limits_s": total("kernels.cpu_limits"),
        "kernels.cc_feedback_s": total("kernels.cc_feedback"),
        "kernels.cpu_costs_s": total("kernels.cpu_costs"),
        "bottleneck.maxmin_s": total("bottleneck.maxmin"),
        "lossmodel.tick_draw_s": total("lossmodel.tick_draw"),
        "lossmodel.concentrate_calls": count("lossmodel.concentrate"),
        "lossmodel.concentrate_s": total("lossmodel.concentrate"),
        "switch.offer_calls": count("switch.offer"),
        "switch.offer_s": total("switch.offer"),
        "metrics.record_tick_s": total("metrics.record_tick"),
        "shard.runs": count("shard.run"),
        "shard.ticks": int(rec.sums["shard.ticks"]),
        "shard.flow_ticks": int(rec.sums["shard.flow_ticks"]),
        "shard.run_s": total("shard.run"),
        "shard.ticks_per_s_100k": (
            rec.sums["shard.ticks_100k"] / run_100k if run_100k else 0.0
        ),
        "shard.prep_s": rec.sums["shard.prep_s"],
        "shard.caps_s": total("shard.caps"),
        "shard.wf_s": total("shard.wf"),
        "shard.wf_rounds": count("shard.wf"),
        "shard.send_s": total("shard.send"),
        "shard.drops1_s": total("shard.drops1"),
        "shard.feedback_s": total("shard.feedback"),
        "shard.concentrate_calls": rec.counts["shard.concentrate"],
        "cc_batch.feedback_s": total("cc_batch.feedback"),
        "cc_batch.loss_one_calls": rec.counts["cc_batch.loss_one"],
    }
