"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` declares the same names; ``perfbench/tests`` checks
that the two agree.  A run with ``--trace 0`` prints ``END_TO_END``, a
run with ``--trace 1`` prints ``PER_LAYER``.  Every workload prints
every name.  The serve workload measures ``SERVE_LAYERS``, the
simulation workloads measure the rest; each prints 0 for the other
family.  Within its own family a workload must measure every name.
"""

from __future__ import annotations

#: What a user of the workload sees, measured with tracing off.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}

#: Per-layer numbers from the traced run (spans recorded around the
#: program's public functions) and, for serve, from the client's
#: per-route records and the daemon's ``GET /stats``.
PER_LAYER: dict[str, str] = {
    "runner.plan_s": "s",
    "runner.execute_s": "s",
    "runner.overhead_s": "s",
    "harness.calls": "count",
    "harness.self_s": "s",
    "flowsim.runs": "count",
    "flowsim.ticks": "count",
    "flowsim.flow_ticks": "count",
    "flowsim.run_s": "s",
    "flowsim.us_per_tick": "us",
    "flowsim.driver_self_s": "s",
    "kernels.pacing_s": "s",
    "kernels.cpu_limits_s": "s",
    "kernels.cc_feedback_s": "s",
    "kernels.cpu_costs_s": "s",
    "bottleneck.maxmin_s": "s",
    "lossmodel.tick_draw_s": "s",
    "lossmodel.concentrate_calls": "count",
    "lossmodel.concentrate_s": "s",
    "switch.offer_calls": "count",
    "switch.offer_s": "s",
    "metrics.record_tick_s": "s",
    "shard.runs": "count",
    "shard.ticks": "count",
    "shard.flow_ticks": "count",
    "shard.run_s": "s",
    "shard.ticks_per_s_100k": "1/s",
    "shard.prep_s": "s",
    "shard.caps_s": "s",
    "shard.wf_s": "s",
    "shard.wf_rounds": "count",
    "shard.send_s": "s",
    "shard.drops1_s": "s",
    "shard.feedback_s": "s",
    "shard.concentrate_calls": "count",
    "cc_batch.feedback_s": "s",
    "cc_batch.loss_one_calls": "count",
    "serve.read_p50_ms": "ms",
    "serve.read_p99_ms": "ms",
    "serve.write_p50_ms": "ms",
    "serve.write_p90_ms": "ms",
    "serve.healthz_p50_ms": "ms",
    "serve.get_result_p50_ms": "ms",
    "serve.post_hit_p50_ms": "ms",
    "serve.post_miss_p50_ms": "ms",
    "serve.write_exec_p50_ms": "ms",
    "serve.write_wait_p50_ms": "ms",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.dispatched": "count",
    "serve.pool_rebuilds": "count",
    "serve.hit_ratio": "ratio",
    "loadgen.sent": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics of the serve workload (plus ``trace.overhead_ratio``,
#: which every workload measures).
SERVE_LAYERS = frozenset(
    name for name in PER_LAYER if name.startswith(("serve.", "loadgen."))
)


def measured_layers(workload: str) -> frozenset:
    """The per-layer metrics ``workload`` itself must measure."""
    if workload == "serve-mixed":
        return SERVE_LAYERS | {"trace.overhead_ratio"}
    return frozenset(PER_LAYER) - SERVE_LAYERS
