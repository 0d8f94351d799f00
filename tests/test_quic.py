"""The QUIC stack: pacers, connections, and the spin-bit observer.

Four families of pins:

* the pacer ladder — every pacer satisfies the driver-side pacing
  protocol, and ``release_slack`` orders the kinds exactly as the
  module promises (interval 0 < token-bucket ~1/3 < chunked ~2/3 <
  none 1), with the token bucket's default depth anchored to the
  kernel model's coarse-internal-pacing slack;
* connection lowering — a :class:`QuicConnection` is rejected unless
  its cc batches and its pacer speaks the protocol, and the duck-typed
  ``flow_release_slack`` hook picks the pacer's slack over the
  :class:`BurstModel` table without perturbing PacingConfig flows;
* the spin-bit observer — fed synthetic ``flow.tick`` streams: clean
  channels bound the estimator error by the edge jitter, impairments
  degrade it the right way, the RNG draw count per edge is fixed
  (stream position is a function of the edge count alone), and
  observation is read-only for the simulation's numbers;
* replay + parity — ``probe.spin`` replay restores the bus clock,
  stays silent when probes are unwanted, renders as Perfetto counter
  tracks, and the registered experiments' digests are invariant to
  the tick kernel and the shard count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.core import units
from repro.quic import (
    ChunkedPacer,
    IntervalPacer,
    NoPacer,
    PACER_KINDS,
    QuicConnection,
    SpinBitObserver,
    TokenBucketPacer,
    aggregate_quic,
    make_pacer,
    simulate_quic,
)
from repro.quic.spin import (
    EDGE_JITTER_FRACTION,
    replay_spin_probes,
)
from repro.sim.flowsim import FlowSimulator, SimProfile
from repro.sim.kernels import ScalarKernel, VectorKernel
from repro.sim.lossmodel import BurstModel, COPY_MODE_SLACK, flow_release_slack
from repro.tcp.pacing import PacingConfig
from repro.testbeds.amlight import AmLightTestbed
from repro.trace.bus import ListSink, TraceBus, tracing
from repro.trace.events import TraceEvent
from repro.trace.export import to_perfetto, validate_perfetto

PROFILE = SimProfile(duration=2.0, tick=0.008, omit=0.5)


# ---------------------------------------------------------------------------
# Pacers
# ---------------------------------------------------------------------------


class TestPacers:
    def test_kinds_ladder_strictly_by_slack(self):
        slacks = [
            make_pacer(k, rate_gbps=None if k == "none" else 19).release_slack(
                True
            )
            for k in PACER_KINDS
        ]
        assert slacks[0] == 0.0 and slacks[-1] == 1.0
        assert all(a < b for a, b in zip(slacks, slacks[1:])), slacks

    def test_default_bucket_anchors_to_kernel_coarse_pacing(self):
        """64 KiB / (64 KiB + 128 KiB) = 1/3 — the saturating curve is
        calibrated to pass through BurstModel's ~0.35 internal-pacing
        slack at the default bucket depth."""
        tb = TokenBucketPacer(rate_bytes_per_sec=1e9)
        assert tb.release_slack(True) == pytest.approx(1 / 3)
        ck = ChunkedPacer(rate_bytes_per_sec=1e9)
        assert ck.release_slack(True) == pytest.approx(2 / 3)

    def test_slack_ignores_zerocopy_except_unpaced(self):
        """Only the unpaced sender's burstiness depends on the copy
        mode — a rate-enforcing pacer's schedule is its own."""
        for kind in PACER_KINDS[:-1]:
            p = make_pacer(kind, rate_gbps=19)
            assert p.release_slack(True) == p.release_slack(False), kind
        none = NoPacer()
        assert none.release_slack(True) == 1.0
        assert none.release_slack(False) == COPY_MODE_SLACK

    def test_driver_protocol(self):
        for kind in PACER_KINDS:
            p = make_pacer(kind, rate_gbps=None if kind == "none" else 19)
            assert isinstance(p.smooths_bursts, bool)
            assert isinstance(p.enabled, bool)
            if kind == "none":
                assert p.effective_rate() is None and not p.enabled
            else:
                assert p.effective_rate() == units.gbps(19) and p.enabled
            assert kind in (p.kind,)
            assert p.describe()

    def test_only_interval_smooths(self):
        assert IntervalPacer(rate_bytes_per_sec=1e9).smooths_bursts
        assert not TokenBucketPacer(rate_bytes_per_sec=1e9).smooths_bursts
        assert not ChunkedPacer(rate_bytes_per_sec=1e9).smooths_bursts
        assert not NoPacer().smooths_bursts

    def test_release_intervals(self):
        iv = IntervalPacer(rate_bytes_per_sec=1500.0 * 100)
        assert iv.release_interval() == pytest.approx(0.01)
        ck = ChunkedPacer(rate_bytes_per_sec=2 ** 20, chunk_bytes=2 ** 18)
        assert ck.release_interval() == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: make_pacer("fq"),
            lambda: make_pacer("interval"),
            lambda: make_pacer("none", rate_gbps=19),
            lambda: make_pacer("token-bucket", rate_gbps=0),
            lambda: make_pacer("token-bucket", rate_gbps=19, bucket_bytes=0),
            lambda: make_pacer("chunked", rate_gbps=19, chunk_bytes=-1),
            lambda: make_pacer("interval", rate_gbps=19, packet_bytes=0),
        ],
    )
    def test_construction_errors(self, call):
        with pytest.raises(ConfigurationError):
            call()


# ---------------------------------------------------------------------------
# Connection lowering and the duck-typed slack hook
# ---------------------------------------------------------------------------


class TestQuicConnection:
    def test_lowering_defaults(self):
        spec = QuicConnection().flow_spec()
        assert spec.cc == "cubic"
        assert spec.zerocopy and spec.skip_rx_copy
        assert isinstance(spec.pacing, NoPacer)
        assert spec.label == "quic-none"

    def test_pacer_object_passes_through(self):
        pacer = make_pacer("interval", rate_gbps=19)
        spec = QuicConnection(pacer=pacer).flow_spec()
        assert spec.pacing is pacer

    def test_unbatchable_cc_rejected(self):
        with pytest.raises(ConfigurationError, match="batched cc steppers"):
            QuicConnection(cc="bbr")

    def test_non_pacer_rejected(self):
        with pytest.raises(ConfigurationError, match="release_slack"):
            QuicConnection(pacer=PacingConfig.fq_rate_gbps(19))

    def test_flow_release_slack_prefers_the_pacer_hook(self):
        burst = BurstModel(rng=np.random.default_rng(0))
        tb = TokenBucketPacer(rate_bytes_per_sec=1e9)
        assert flow_release_slack(tb, True, burst) == tb.release_slack(True)

    def test_flow_release_slack_falls_back_to_the_kernel_table(self):
        """PacingConfig has no release_slack, so TCP flows keep the
        BurstModel numbers bit for bit."""
        burst = BurstModel(rng=np.random.default_rng(0))
        for pacing, zerocopy in [
            (PacingConfig.fq_rate_gbps(19), True),
            (PacingConfig.unpaced(), True),
            (PacingConfig.unpaced(), False),
        ]:
            assert flow_release_slack(pacing, zerocopy, burst) == (
                burst.slack_for(pacing.smooths_bursts, pacing.enabled, zerocopy)
            )

    def test_simulators_require_a_connection(self):
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        with pytest.raises(ConfigurationError):
            simulate_quic(snd, rcv, tb.path("wan54"), [])
        with pytest.raises(ConfigurationError):
            aggregate_quic(snd, rcv, tb.path("wan54"), QuicConnection(), 0)


# ---------------------------------------------------------------------------
# Spin-bit observer on synthetic tick streams
# ---------------------------------------------------------------------------


def tick(seq, t, flow=0, rtt=0.05, delivered=1e6):
    return TraceEvent(
        seq, t, "flow", "flow.tick",
        track="syn",
        args={"flow": flow, "rtt": rtt, "delivered": delivered,
              "sent": delivered, "dropped": 0.0},
    )


def feed(obs, *, rtt=0.05, step=0.004, until=2.0, flow=0):
    t, seq = step, 0
    while t <= until:
        obs.write(tick(seq, t, flow=flow, rtt=rtt))
        t += step
        seq += 1


class TestSpinObserver:
    def test_clean_channel_error_bounded_by_edge_jitter(self):
        obs = SpinBitObserver(np.random.default_rng(1))
        feed(obs, rtt=0.05, step=0.004, until=2.0)
        ests = obs.estimates()
        assert len(ests) >= 30
        # Each edge slips by at most EDGE_JITTER_FRACTION of the RTT,
        # so a sample (difference of two edges) errs by at most twice
        # that — plus nothing else on a clean channel.
        assert max(e.err_fraction for e in ests) <= 2 * EDGE_JITTER_FRACTION
        assert obs.error_stats()["median_err_pct"] < 10.0

    def test_true_rtt_is_ground_truth(self):
        obs = SpinBitObserver(np.random.default_rng(1))
        feed(obs, rtt=0.034)
        assert all(e.true_rtt == 0.034 for e in obs.estimates())

    def test_ignores_idle_and_invalid_ticks(self):
        obs = SpinBitObserver(np.random.default_rng(1))
        obs.write(tick(0, 0.1, delivered=0.0))
        obs.write(tick(1, 0.2, rtt=0.0))
        obs.write(TraceEvent(2, 0.3, "flow", "flow.loss", args={"flow": 0}))
        assert obs.estimates() == []
        assert obs.error_stats() == {
            "median_err_pct": 0.0, "p90_err_pct": 0.0, "edges": 0,
        }

    def test_flows_spin_independently(self):
        obs = SpinBitObserver(np.random.default_rng(3))
        for flow, rtt in ((0, 0.05), (1, 0.1)):
            feed(obs, rtt=rtt, flow=flow)
        by_flow = {}
        for e in obs.estimates():
            by_flow.setdefault(e.flow, []).append(e)
        # Half the RTT -> roughly twice the recovered edges.
        assert len(by_flow[0]) > 1.5 * len(by_flow[1])
        assert {e.true_rtt for e in by_flow[1]} == {0.1}

    def test_same_stream_same_estimates(self):
        runs = []
        for _ in range(2):
            obs = SpinBitObserver(
                np.random.default_rng(42), loss_prob=0.3, reorder_prob=0.3
            )
            feed(obs)
            runs.append(obs.estimates())
        assert runs[0] == runs[1]

    def test_loss_stretches_the_tail(self):
        clean = SpinBitObserver(np.random.default_rng(7))
        lossy = SpinBitObserver(np.random.default_rng(7), loss_prob=0.5)
        feed(clean)
        feed(lossy)
        assert (
            lossy.error_stats()["p90_err_pct"]
            > 3 * clean.error_stats()["p90_err_pct"]
        )

    def test_reordering_manufactures_edges(self):
        clean = SpinBitObserver(np.random.default_rng(7))
        noisy = SpinBitObserver(np.random.default_rng(7), reorder_prob=0.5)
        feed(clean)
        feed(noisy)
        assert len(noisy.estimates()) > len(clean.estimates())
        assert (
            noisy.error_stats()["p90_err_pct"]
            > 3 * clean.error_stats()["p90_err_pct"]
        )

    def test_edges_are_monotone_per_flow(self):
        obs = SpinBitObserver(
            np.random.default_rng(9), loss_prob=0.4, reorder_prob=0.4
        )
        feed(obs)
        ts = [t for t, _ in obs._flows[0].edges]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(e.est_rtt > 0 for e in obs.estimates())

    def test_exactly_five_draws_per_edge(self):
        """The stream position is a function of the edge count alone:
        whatever the impairment branches consume, every observed edge
        costs exactly five variates."""
        obs = SpinBitObserver(
            np.random.default_rng(11), loss_prob=0.2, reorder_prob=0.2
        )
        feed(obs)
        # Count true flips by replaying the clean schedule: first
        # delivering tick seeds the clock, one flip per RTT after.
        ref = SpinBitObserver(np.random.default_rng(0))
        feed(ref)
        true_edges = len(ref._flows[0].edges)
        expect = np.random.default_rng(11)
        expect.random((true_edges, 5))
        assert obs.rng.random() == expect.random()

    @pytest.mark.parametrize("kw", [
        {"loss_prob": -0.1}, {"loss_prob": 1.0},
        {"reorder_prob": -0.1}, {"reorder_prob": 1.5},
    ])
    def test_impairment_validation(self, kw):
        with pytest.raises(ConfigurationError):
            SpinBitObserver(np.random.default_rng(0), **kw)


# ---------------------------------------------------------------------------
# Replay, read-only observation, and digest parity
# ---------------------------------------------------------------------------


def _quic_sim(kind="interval", conns=2):
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    pacer = make_pacer(kind, rate_gbps=None if kind == "none" else 19)
    return simulate_quic(
        snd, rcv, tb.path("wan54"),
        [QuicConnection(pacer=pacer) for _ in range(conns)],
        profile=PROFILE, rng=RngFactory(5),
    )


class TestReplayAndParity:
    def test_replay_emits_counters_and_restores_the_clock(self):
        sink = ListSink()
        obs = SpinBitObserver(np.random.default_rng(2))
        with tracing(TraceBus(sinks=[sink])) as bus:
            bus.add_sink(obs)
            _quic_sim().run(0)
            bus.remove_sink(obs)
            before = bus.now
            n = replay_spin_probes(bus, obs)
            assert bus.now == before
        ests = obs.estimates()
        assert n == len(ests) > 0
        spins = [e for e in sink.events if e.name == "probe.spin"]
        assert len(spins) == n
        assert [e.t for e in spins] == [e.t for e in ests]
        assert all(
            isinstance(v, (int, float)) for e in spins
            for v in e.args.values()
        )

    def test_replay_is_silent_when_probes_are_unwanted(self):
        sink = ListSink(categories=["flow"])
        obs = SpinBitObserver(np.random.default_rng(2))
        with tracing(TraceBus(sinks=[sink])) as bus:
            _quic_sim().run(0)
            assert replay_spin_probes(bus, obs) == 0
        assert [e for e in sink.events if e.cat == "probe"] == []

    def test_spin_probes_render_as_perfetto_counter_tracks(self):
        sink = ListSink()
        obs = SpinBitObserver(np.random.default_rng(2))
        with tracing(TraceBus(sinks=[sink])) as bus:
            bus.add_sink(obs)
            _quic_sim(conns=2).run(0)
            bus.remove_sink(obs)
            replay_spin_probes(bus, obs)
        doc = to_perfetto(sink.events)
        assert validate_perfetto(doc) == []
        counters = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "C"
        }
        assert {"probe.spin/flow0", "probe.spin/flow1"} <= counters
        spin = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "probe.spin/flow0"
        )
        assert {"est_rtt_ms", "true_rtt_ms", "err_pct"} <= set(spin["args"])

    def test_observation_is_read_only(self):
        """Attaching the observer cannot move a simulated number."""
        bare = _quic_sim().run(0)
        obs = SpinBitObserver(np.random.default_rng(2))
        with tracing(TraceBus(sinks=[obs])):
            tapped = _quic_sim().run(0)
        assert np.array_equal(bare.per_flow_goodput, tapped.per_flow_goodput)
        assert bare.retransmit_segments == tapped.retransmit_segments
        assert bare.loss_events == tapped.loss_events

    def test_aggregate_shard_count_is_invisible(self):
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        runs = []
        for shards in (1, 3):
            sim = aggregate_quic(
                snd, rcv, tb.path("wan54"),
                QuicConnection(pacer=make_pacer("token-bucket", rate_gbps=19)),
                96, profile=PROFILE, rng=RngFactory(8), shards=shards,
            )
            runs.append(sim.run(0))
        assert np.array_equal(
            runs[0].per_flow_goodput, runs[1].per_flow_goodput
        )
        assert runs[0].retransmit_segments == runs[1].retransmit_segments

    @pytest.mark.parametrize("exp_id", ["quic-pacing", "spin-accuracy"])
    def test_digest_is_kernel_invariant(self, exp_id, monkeypatch):
        from repro.experiments.registry import run_experiment
        from repro.tools.harness import HarnessConfig

        config = HarnessConfig(
            repetitions=1, duration=1.0, omit=0.25, tick=0.008, seed=7
        )
        digests = set()
        for kernel in (ScalarKernel, VectorKernel):
            monkeypatch.setattr(FlowSimulator, "kernel_class", kernel)
            digests.add(run_experiment(exp_id, config).digest())
        assert len(digests) == 1
