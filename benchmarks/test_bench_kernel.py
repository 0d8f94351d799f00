"""Tick-kernel micro-benchmark: scalar reference vs vectorized path.

Times a fig09-sized campaign (16 zerocopy flows fq-paced to 50 Gbps
aggregate on the 104 ms AmLight path, 2 repetitions at 2 ms ticks —
the shape behind the paper's optmem sweep) under both tick kernels,
asserts the results stay byte-identical, and refreshes ``BENCH_5.json``
at the repo root with the measured wall-clock trajectory.

The committed numbers are the perf contract: the vector kernel must
hold a >= 3x speedup on this campaign (the in-test floor is 2.5x to
absorb shared-CI machine noise; the committed JSON records what a
quiet machine measures).  Run with::

    pytest benchmarks/test_bench_kernel.py -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.rng import RngFactory
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.kernels import ScalarKernel, VectorKernel
from repro.tcp.pacing import PacingConfig
from repro.testbeds.amlight import AmLightTestbed

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_5.json"

#: Fig. 9's operating point: 16 iperf3 -Z streams, fq paced to an
#: aggregate 50 Gbps, on the 104 ms path (Fig09OptmemSweep uses
#: Iperf3Options(zerocopy="z", fq_rate_gbps=50)).
N_FLOWS = 16
PROFILE = SimProfile(duration=4.0, tick=0.002, omit=1.0)
REPS = 2
TRIALS = 3
#: In-test floor; the acceptance target (>= 3x) is asserted on the
#: committed BENCH_5.json numbers, measured on a quiet machine.
MIN_SPEEDUP = 2.5


def _campaign_flows() -> list[FlowSpec]:
    per_flow_gbps = 50.0 / N_FLOWS
    return [
        FlowSpec(zerocopy=True, pacing=PacingConfig.fq_rate_gbps(per_flow_gbps))
        for _ in range(N_FLOWS)
    ]


def _run_campaign(kernel: type) -> tuple[float, list]:
    """One timed campaign on ``kernel``; returns (seconds, results)."""
    tb = AmLightTestbed(kernel="6.5")
    snd, rcv = tb.host_pair()
    path = tb.path("wan104")
    flows = _campaign_flows()
    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowSimulator, "kernel_class", kernel)
        start = time.perf_counter()
        for rep in range(REPS):
            sim = FlowSimulator(snd, rcv, path, flows, PROFILE, RngFactory(2024))
            results.append(sim.run())
        elapsed = time.perf_counter() - start
    return elapsed, results


def test_bench_kernel_speedup_and_parity():
    # Warm both paths (imports, allocator, numpy dispatch caches).
    _run_campaign(VectorKernel)
    _run_campaign(ScalarKernel)

    scalar_times, vector_times = [], []
    for _ in range(TRIALS):
        es, rs = _run_campaign(ScalarKernel)
        ev, rv = _run_campaign(VectorKernel)
        scalar_times.append(es)
        vector_times.append(ev)
        # The bench is only meaningful if both kernels computed the
        # same campaign — byte-identical, not approximately.
        for a, b in zip(rs, rv):
            assert np.array_equal(a.per_flow_goodput, b.per_flow_goodput)
            assert a.retransmit_segments == b.retransmit_segments
            assert a.sender_cpu == b.sender_cpu
            assert a.receiver_cpu == b.receiver_cpu

    best_scalar = min(scalar_times)
    best_vector = min(vector_times)
    speedup = best_scalar / best_vector

    entry = {
        "bench": "tick-kernel",
        "campaign": {
            "testbed": "amlight",
            "path": "wan104",
            "flows": N_FLOWS,
            "pacing_gbps_total": 50.0,
            "zerocopy": True,
            "duration_sec": PROFILE.duration,
            "tick_sec": PROFILE.tick,
            "repetitions": REPS,
            "seed": 2024,
        },
        "trials": TRIALS,
        "scalar_sec": round(best_scalar, 4),
        "vector_sec": round(best_vector, 4),
        "speedup": round(speedup, 2),
    }
    BENCH_PATH.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    print(f"\nscalar {best_scalar*1e3:.1f} ms | vector {best_vector*1e3:.1f} ms "
          f"| speedup {speedup:.2f}x -> {BENCH_PATH.name}")

    assert speedup >= MIN_SPEEDUP, (
        f"vector kernel speedup {speedup:.2f}x fell below the "
        f"{MIN_SPEEDUP}x floor (scalar {best_scalar:.3f}s, "
        f"vector {best_vector:.3f}s)"
    )
