"""QUIC pacing strategies and spin-bit estimator accuracy.

Two campaigns extending the paper's fq-pacing story into userspace
(ROADMAP item 3; "QUIC Steps" and "three bits suffice" in PAPERS.md):

* ``quic-pacing`` — the pacer cross product: every
  :data:`~repro.quic.pacer.PACER_KINDS` release discipline on the
  AmLight WAN paths, against deep (stock NoviFlow 16 MB) and shallow
  (2 MB) shared buffers, plus a 256-connection sharded aggregate per
  pacer on wan54.  The pacers reuse the TCP simulator's loss model
  through their ``release_slack`` signal, so "how bursty is this
  pacer" lands on exactly the scale the kernel fq/fq_codel results
  use.  The appendix renders the burstiness ladder against the
  shallow-buffer long-path outcome.

* ``spin-accuracy`` — the passive RTT estimator validated against
  simulator ground truth: a
  :class:`~repro.quic.spin.SpinBitObserver` taps interval-paced
  connections on the two long paths while the observation channel is
  impaired with edge loss and reordering; rows report the median and
  p90 estimation error per (path, loss, reorder) cell.  Under a
  traced run the recovered samples replay as ``probe.spin`` events —
  an estimated-vs-true RTT counter track per flow in the Perfetto
  export.

Both are ordinary registry experiments: digests are byte-identical
between the vector kernel and its scalar reference and across
``--shards`` and ``--jobs``, and the paper-shape tests assert the
qualitative claims (including the < 10% zero-loss median the spin-bit
literature leads with) from the golden campaign's rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import RngFactory
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.cc_zoo import _with_buffer
from repro.quic.pacer import PACER_KINDS, make_pacer
from repro.quic.spin import SpinBitObserver, replay_spin_probes
from repro.quic.stack import QuicConnection, aggregate_quic, simulate_quic
from repro.sim.flowsim import SimProfile
from repro.testbeds.amlight import AmLightTestbed
from repro.tools.harness import HarnessConfig
from repro.trace.bus import TraceBus
from repro.trace.bus import active as trace_active
from repro.trace.bus import tracing

__all__ = ["QuicPacingCampaign", "SpinAccuracySweep"]

#: Per-connection pacing rate of the rate-enforcing pacers, matching
#: the TCP campaigns' per-stream --fq-rate 19 Gbps.
PACER_RATE_GBPS = 19

QUIC_PATHS = ("wan25", "wan54", "wan104")
QUIC_CONNS = 4
AGG_CONNS = 256
AGG_PATH = "wan54"

SPIN_PATHS = ("wan54", "wan104")
SPIN_LOSS = (0.0, 0.1, 0.3)
SPIN_REORDER = (0.0, 0.1, 0.3)


def _pacer_for(kind: str):
    if kind == "none":
        return make_pacer("none")
    return make_pacer(kind, rate_gbps=PACER_RATE_GBPS)


def _connections(kind: str, cc: str = "cubic") -> list[QuicConnection]:
    return [
        QuicConnection(cc=cc, pacer=_pacer_for(kind)) for _ in range(QUIC_CONNS)
    ]


def _ladder(result: ExperimentResult) -> str:
    """Burstiness ladder: release slack vs the shallow wan104 outcome."""
    lines = [
        "**Burstiness ladder** (release slack vs shallow-buffer wan104):",
        "",
        "| pacer | release slack | gbps | retr/s |",
        "|---|---|---|---|",
    ]
    for kind in PACER_KINDS:
        slack = _pacer_for(kind).release_slack(True)
        row = result.row_by(
            pacer=kind, path="wan104", buffer="shallow"
        )
        lines.append(
            f"| {kind} | {slack:.2f} | {row['gbps']:.1f} | {row['retr']} |"
        )
    return "\n".join(lines)


class QuicPacingCampaign(Experiment):
    exp_id = "quic-pacing"
    title = "QUIC userspace pacers: pacer x buffer depth x RTT"
    paper_ref = "Section V.A extended to userspace stacks (QUIC Steps)"
    expectation = (
        "release-schedule burstiness orders every shallow-buffer WAN "
        "cell's throughput exactly — interval > token-bucket > chunked "
        "> none at each RTT, the unpaced stack collapsing hardest on "
        "the longest path; interval pacing alone is retransmit-free on "
        "the deep cells, paying instead a steady tail-drop trickle in "
        "the shallow cells it keeps saturated while the bursty pacers "
        "collapse; deep buffers absorb the trains, holding every "
        "rate-enforcing pacer within 10% of the cap, and the "
        "256-connection aggregate converges near line rate with the "
        "unpaced stack last"
    )

    def run(self, config: HarnessConfig | None = None) -> ExperimentResult:
        config = config or HarnessConfig.bench()
        result = self._result(
            ["pacer", "path", "buffer", "gbps", "retr", "stdev"],
            notes=(
                f"{QUIC_CONNS} cubic connections per cell plus a "
                f"{AGG_CONNS}-connection sharded aggregate; digests are "
                "kernel- and --shards-invariant"
            ),
        )
        rng = RngFactory(seed=config.seed)
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        profile = SimProfile(
            duration=config.duration, tick=config.tick, omit=config.omit
        )
        for path_name in QUIC_PATHS:
            for buffer_name in ("deep", "shallow"):
                path = _with_buffer(tb.path(path_name), buffer_name)
                for kind in PACER_KINDS:
                    sim = simulate_quic(
                        snd, rcv, path, _connections(kind),
                        profile=profile,
                        rng=rng.fork(
                            f"quic:cell:{kind}:{path_name}:{buffer_name}"
                        ),
                    )
                    gbps, retr = _rep_series(sim, config)
                    result.add_row(
                        pacer=kind,
                        path=path_name,
                        buffer=buffer_name,
                        gbps=float(np.mean(gbps)),
                        retr=int(np.mean(retr)),
                        stdev=float(np.std(gbps)),
                    )
        for kind in PACER_KINDS:
            sim = aggregate_quic(
                snd, rcv, tb.path(AGG_PATH),
                QuicConnection(cc="cubic", pacer=_pacer_for(kind)),
                AGG_CONNS,
                profile=profile,
                rng=rng.fork(f"quic:agg:{kind}"),
            )
            gbps, retr = _rep_series(sim, config)
            result.add_row(
                pacer=kind,
                path=AGG_PATH,
                buffer=f"agg{AGG_CONNS}",
                gbps=float(np.mean(gbps)),
                retr=int(np.mean(retr)),
                stdev=float(np.std(gbps)),
            )
        result.appendix = _ladder(result)
        return result


def _rep_series(sim, config: HarnessConfig) -> tuple[list, list]:
    """Per-repetition (total gbps, retransmits/s) through any simulator."""
    gbps: list[float] = []
    retr: list[float] = []
    for rep in range(config.repetitions):
        run = sim.run(rep)
        gbps.append(run.total_gbps)
        window = run.duration - run.omit
        retr.append(run.retransmit_segments / window)
    return gbps, retr


class SpinAccuracySweep(Experiment):
    exp_id = "spin-accuracy"
    title = "Spin-bit RTT estimator error vs loss and reordering"
    paper_ref = "Observability sidebar; spin bit (three bits suffice)"
    expectation = (
        "at zero loss and no reordering the passive estimator's median "
        "error stays under 10% of ground truth on both long paths (and "
        "in practice under 3%); the median degrades monotonically along "
        "both impairment axes, the tail degrades monotonically with "
        "reordering at every loss rate (and with loss until the "
        "reorder-split samples own the tail), and on p90 reordering is "
        "the harsher impairment at every matched rate"
    )

    def run(self, config: HarnessConfig | None = None) -> ExperimentResult:
        config = config or HarnessConfig.bench()
        result = self._result(
            ["path", "loss", "reorder", "median_err_pct", "p90_err_pct", "edges"],
            notes=(
                f"{QUIC_CONNS} interval-paced cubic connections per cell; "
                "errors pooled over repetitions; traced runs replay the "
                "samples as probe.spin counter tracks"
            ),
        )
        rng = RngFactory(seed=config.seed)
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        profile = SimProfile(
            duration=config.duration, tick=config.tick, omit=config.omit
        )
        for path_name in SPIN_PATHS:
            path = tb.path(path_name)
            for loss in SPIN_LOSS:
                for reorder in SPIN_REORDER:
                    cell = rng.fork(f"quic:spin:{path_name}:{loss}:{reorder}")
                    sim = simulate_quic(
                        snd, rcv, path, _connections("interval"),
                        profile=profile,
                        rng=cell.fork("quic:spin:sim"),
                    )
                    errs: list[float] = []
                    edges = 0
                    for rep in range(config.repetitions):
                        obs = SpinBitObserver(
                            cell.stream("quic:spin:edges", rep),
                            loss_prob=loss,
                            reorder_prob=reorder,
                        )
                        _observed_run(sim, obs, rep)
                        ests = obs.estimates()
                        errs.extend(e.err_fraction * 100.0 for e in ests)
                        edges += len(ests)
                    arr = np.array(errs) if errs else np.zeros(1)
                    result.add_row(
                        path=path_name,
                        loss=loss,
                        reorder=reorder,
                        median_err_pct=float(np.median(arr)),
                        p90_err_pct=float(np.quantile(arr, 0.9)),
                        edges=edges,
                    )
        return result


def _observed_run(sim, obs: SpinBitObserver, rep: int):
    """One rep with the observer tapping the flow.tick stream.

    Under a traced run the observer joins the ambient bus (and its
    samples replay as ``probe.spin`` events afterwards); otherwise a
    private single-sink bus supplies the tap.  Either way the
    simulation's own numbers are untouched — observation is read-only.
    """
    bus = trace_active()
    if bus is None:
        with tracing(TraceBus(sinks=[obs])):
            return sim.run(rep)
    bus.add_sink(obs)
    try:
        run = sim.run(rep)
    finally:
        bus.remove_sink(obs)
    replay_spin_probes(bus, obs)
    return run
