"""Scalar/vector tick-kernel byte parity.

The vector kernel's contract (``repro.sim.kernels``) is not "close":
it is *byte-identical* to the scalar reference — same
``RunResult`` numbers, same ``ExperimentResult.digest()``, and the
same-seed trace streams must match event for event.  These tests pin
that contract on fixed configurations covering every simulator branch
(mixed congestion control with losses, 802.3x flow control, zerocopy
fallback, pacing), on hypothesis-generated configurations, on
registered experiments' digests, and on the spilled traces and Perfetto
exports of fig09 and spin-accuracy.

The simulator always runs ``FlowSimulator.kernel_class``; these tests
swap the scalar reference in for that class attribute.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rng import RngFactory
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.kernels import ScalarKernel, VectorKernel
from repro.tcp.pacing import PacingConfig
from repro.testbeds.amlight import AmLightTestbed
from repro.testbeds.esnet import ESnetTestbed
from repro.tools.harness import HarnessConfig
from repro.trace.bus import ListSink, TraceBus, tracing

from tests._golden import GOLDEN_CONFIG

PROFILE = SimProfile(duration=4.0, tick=0.008, omit=1.0)
#: A short cc-zoo campaign.  At :data:`GOLDEN_CONFIG` the zoo takes
#: 10-13 s per kernel on a 2-vCPU Xeon; its golden digest is already re-checked under
#: the scalar kernel by ``test_runner_golden.py --tick-kernel scalar``.
SHORT_CONFIG = HarnessConfig(
    repetitions=1, duration=0.5, omit=0.125, tick=0.008, seed=7
)


def run_traced(kernel, hosts, path, flows, seed, profile=PROFILE):
    """One traced simulation run under the ``kernel`` class."""
    snd, rcv = hosts
    sink = ListSink()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowSimulator, "kernel_class", kernel)
        with tracing(TraceBus(sinks=[sink])):
            sim = FlowSimulator(
                snd, rcv, path, flows, profile, RngFactory(seed)
            )
            res = sim.run()
    return res, sink.events


def assert_bit_identical(case_a, case_b):
    """Full-result and full-trace equality, no tolerances anywhere."""
    ra, ea = case_a
    rb, eb = case_b
    assert np.array_equal(ra.per_flow_goodput, rb.per_flow_goodput)
    assert np.array_equal(ra.interval_goodput, rb.interval_goodput)
    assert ra.retransmit_segments == rb.retransmit_segments
    assert ra.loss_events == rb.loss_events
    assert ra.sender_cpu == rb.sender_cpu
    assert ra.receiver_cpu == rb.receiver_cpu
    assert ra.zc_fraction_mean == rb.zc_fraction_mean
    assert ea == eb


#: Fixed configurations covering the simulator's branchy corners.
CASES = {
    # Mixed CC algorithms on a lossy long path: loss reactions, cwnd
    # validation, per-algorithm batch groups.
    "mixed-cc-wan": (
        AmLightTestbed(kernel="6.5"),
        "wan104",
        [
            FlowSpec(cc="bbr1"),
            FlowSpec(cc="reno"),
            FlowSpec(cc="cubic", zerocopy=True),
            FlowSpec(cc="bbr3", pacing=PacingConfig.fq_rate_gbps(20.0)),
        ],
        7,
    ),
    # Homogeneous cubic on a LAN: the steady-state fast path.
    "cubic-lan": (
        AmLightTestbed(kernel="6.8"),
        "lan",
        [FlowSpec(cc="cubic") for _ in range(8)],
        2024,
    ),
    # Parallel unpaced flows, alternating zerocopy: burst trains,
    # concentrated drops, zc fallback fractions.
    "esnet-unpaced": (
        ESnetTestbed(kernel="6.8"),
        "wan",
        [FlowSpec(zerocopy=(i % 2 == 0)) for i in range(16)],
        11,
    ),
    # fq-paced zerocopy receivers skipping the rx copy: the all-smooth
    # (no-trains) path plus the skip-copy receiver cost branch.
    "paced-skip-copy": (
        ESnetTestbed(kernel="6.5"),
        "lan",
        [
            FlowSpec(
                pacing=PacingConfig.fq_rate_gbps(12.0),
                zerocopy=True,
                skip_rx_copy=True,
            )
            for _ in range(4)
        ],
        5,
    ),
    # The full congestion-control zoo on a lossy WAN: every array batch
    # group (incl. the per-flow-parameter tunable group) side by side.
    "cc-zoo-wan": (
        AmLightTestbed(kernel="6.8"),
        "wan54",
        [
            FlowSpec(cc="highspeed"),
            FlowSpec(cc="htcp"),
            FlowSpec(cc="scalable"),
            FlowSpec(cc="westwood"),
            FlowSpec(cc="tunable-cubic:alpha=1.5,beta=0.5"),
            FlowSpec(cc="tunable-cubic:c=0.2"),
            FlowSpec(cc="cubic"),
            FlowSpec(cc="reno"),
        ],
        13,
    ),
    # Homogeneous runs of each zoo algorithm: the single-full-group
    # fast path (batch.cwnd aliases the group array) for every stepper.
    "cc-zoo-homogeneous": (
        AmLightTestbed(kernel="6.8"),
        "wan104",
        [
            FlowSpec(cc=kind)
            for kind in (
                "highspeed", "htcp", "scalable", "westwood",
            )
            for _ in range(2)
        ],
        29,
    ),
}


class TestFixedConfigParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_results_and_trace_bit_identical(self, name):
        tb, path, flows, seed = CASES[name]
        scalar = run_traced(ScalarKernel, tb.host_pair(), tb.path(path), flows, seed)
        vector = run_traced(VectorKernel, tb.host_pair(), tb.path(path), flows, seed)
        assert_bit_identical(scalar, vector)

    def test_flow_control_path_parity(self):
        """802.3x pause frames (ESnet production DTNs) — the branch
        where ring overflow becomes backpressure, not loss."""
        tb = ESnetTestbed(kernel="6.8")
        flows = [FlowSpec(cc="cubic") for _ in range(6)]
        scalar = run_traced(
            ScalarKernel, tb.production_host_pair(), tb.production_path(), flows, 3
        )
        vector = run_traced(
            VectorKernel, tb.production_host_pair(), tb.production_path(), flows, 3
        )
        assert_bit_identical(scalar, vector)


flow_strategy = st.builds(
    FlowSpec,
    pacing=st.one_of(
        st.just(PacingConfig.unpaced()),
        st.floats(min_value=0.5, max_value=60.0).map(PacingConfig.fq_rate_gbps),
    ),
    zerocopy=st.booleans(),
    skip_rx_copy=st.booleans(),
    cc=st.sampled_from(
        [
            "cubic",
            "reno",
            "bbr1",
            "bbr3",
            "highspeed",
            "htcp",
            "scalable",
            "westwood",
            "tunable-cubic:alpha=2.0,beta=0.6,c=0.5",
        ]
    ),
)


class TestHypothesisParity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        flows=st.lists(flow_strategy, min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        path=st.sampled_from(["wan54", "wan104", "lan"]),
    )
    def test_random_configs_bit_identical(self, flows, seed, path):
        tb = AmLightTestbed(kernel="6.8")
        scalar = run_traced(ScalarKernel, tb.host_pair(), tb.path(path), flows, seed)
        vector = run_traced(VectorKernel, tb.host_pair(), tb.path(path), flows, seed)
        assert_bit_identical(scalar, vector)


class TestTimeoutPathParity:
    """``cc_timeout`` (RTO collapse) bit parity between the kernels.

    The fluid driver never RTOs, so this path is pinned directly: both
    kernels process the same tick/loss/timeout schedule and must agree
    on every window and every (flow, before, after) report — including
    post-timeout epoch state, which is where the pre-fix ``on_timeout``
    (base-state-only reset) diverged from a true Linux RTO.
    """

    KINDS = [
        "cubic", "reno", "highspeed", "htcp", "scalable", "westwood",
        "tunable-cubic:alpha=1.2,beta=0.55", "bbr1",
    ]

    @staticmethod
    def _kernel(name, ccs):
        if name == "scalar":
            return ScalarKernel(
                ccs, [], [],
                run_noise=1.0, snd_app_share=1.0, rcv_app_share=1.0,
                rcv_irq_share=1.0, budget_rx=1.0, agg_rx_base=1.0,
            )
        # Only the congestion hooks are under test; skip the CPU cost
        # half of ``_bind`` (it needs real cost models).
        from repro.tcp.cc.batch import CcBatch

        kern = VectorKernel.__new__(VectorKernel)
        kern.batch = CcBatch(ccs)
        kern.cwnd = kern.batch.cwnd
        return kern

    @pytest.mark.parametrize(
        "copies, loss_p, rtt_swing",
        [
            pytest.param(1, 0.01, 0.0, id="one-per-kind"),
            # Several losses per group per tick, repeats inside
            # LOSS_REACTION_RTTS, losses in slow start, groups
            # interleaved by flow index (the ascending merge), and a
            # varying RTT so H-TCP's backoff clips at both bounds.
            pytest.param(6, 0.2, 2.0, id="six-per-kind"),
        ],
    )
    def test_timeout_schedule_bit_identical(self, copies, loss_p, rtt_swing):
        from repro.tcp.cc import make_cc

        kinds = self.KINDS * copies
        n = len(kinds)
        mss = 8960.0
        kernels = {
            name: self._kernel(name, [make_cc(k, mss=mss) for k in kinds])
            for name in ("scalar", "vector")
        }
        rng = np.random.default_rng(17)
        rtt_rng = np.random.default_rng(29)
        now, dt = 0.0, 0.008
        max_window = 64 * 1024 * 1024.0
        for step in range(800):
            now += dt
            rtt = 0.054 * (1.0 + rtt_swing * rtt_rng.random())
            cwnd = kernels["scalar"].cwnd
            delivered = rng.uniform(0.0, 2.5, n) * cwnd * (dt / rtt)
            al_mask = rng.random(n) < 0.05
            loss_idx = np.nonzero(rng.random(n) < loss_p)[0]
            to_idx = np.nonzero(rng.random(n) < 0.004)[0]
            reports = {}
            for name, kern in kernels.items():
                losses = kern.cc_feedback(
                    now, dt, rtt, delivered, loss_idx, al_mask, max_window
                )
                timeouts = kern.cc_timeout(now, to_idx)
                reports[name] = (losses, timeouts)
            assert reports["scalar"] == reports["vector"], step
            assert np.array_equal(
                kernels["scalar"].cwnd, kernels["vector"].cwnd
            ), step


class TestExperimentDigestParity:
    def test_registered_experiment_digest_identical(self, monkeypatch):
        """End-to-end through the harness: the committed digest form."""
        from repro.runner import RunnerConfig, run_experiments

        digests = set()
        for kernel in (ScalarKernel, VectorKernel):
            monkeypatch.setattr(FlowSimulator, "kernel_class", kernel)
            report = run_experiments(
                ["pit-fqrate"],
                config=GOLDEN_CONFIG,
                runner=RunnerConfig(jobs=1, use_cache=False),
            )
            (result,) = report.results
            digests.add(result.digest())
        assert len(digests) == 1

    def test_cc_zoo_digest_identical(self, monkeypatch):
        """The zoo's mixed-algorithm campaign, every batch group at once."""
        from repro.experiments.registry import run_experiment

        digests = set()
        for kernel in (ScalarKernel, VectorKernel):
            monkeypatch.setattr(FlowSimulator, "kernel_class", kernel)
            digests.add(run_experiment("cc-zoo", SHORT_CONFIG).digest())
        assert len(digests) == 1


class TestTraceParity:
    @pytest.mark.parametrize("exp_id", ["fig09", "spin-accuracy"])
    def test_spilled_trace_and_export_byte_identical(
        self, exp_id, tmp_path, monkeypatch
    ):
        """``repro trace --spill`` output is the same file under both."""
        from repro.runner import RunnerConfig, run_experiments
        from repro.trace.bus import TraceSpec

        files = []
        for kernel in (ScalarKernel, VectorKernel):
            monkeypatch.setattr(FlowSimulator, "kernel_class", kernel)
            out = tmp_path / kernel.__name__
            runner = RunnerConfig(
                jobs=1,
                use_cache=False,
                trace=TraceSpec(spill_dir=out / "spill"),
                trace_dir=out / "export",
            )
            report = run_experiments(
                [exp_id], config=GOLDEN_CONFIG, runner=runner
            )
            trace = report.by_id(exp_id).trace
            files.append(
                (trace["jsonl"].read_bytes(), trace["path"].read_bytes())
            )
        (scalar_jsonl, scalar_export), (vector_jsonl, vector_export) = files
        assert scalar_jsonl == vector_jsonl
        assert scalar_export == vector_export


class TestSelection:
    def test_default_is_vector(self):
        """A fresh interpreter (no test-session swap) runs the vector kernel."""
        import subprocess
        import sys

        probe = (
            "from repro.sim.flowsim import FlowSimulator; "
            "print(FlowSimulator.kernel_class.__name__)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == VectorKernel.__name__
