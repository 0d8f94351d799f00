"""Congestion-control zoo: who wins where, beyond CUBIC vs BBR.

The paper compares CUBIC against BBRv1/v3 (Section IV.F) and leaves the
rest of the pluggable-CC landscape unexplored.  The kernels the paper
tunes still ship the classic high-BDP algorithms — HighSpeed (RFC
3649), H-TCP, Scalable — plus Westwood+, and TCPTuner-style parameter
sweeps of CUBIC itself; on R&E paths their response functions differ
exactly where the paper's tuning advice matters (high bandwidth-delay
product, shallow provider buffers, pacing).

Two campaigns:

* ``cc-zoo`` — the full cross product: every zoo algorithm on each
  AmLight path (lan / wan25 / wan54 / wan104), against the NoviFlow
  switch's deep (stock 16 MB) and a shallow (2 MB) shared buffer, with
  and without fq pacing, plus a 256-flow sharded aggregate per
  algorithm on wan54.  The result carries a "who wins where" heatmap
  (:attr:`~repro.experiments.base.ExperimentResult.appendix`) naming
  the throughput winner per cell.
* ``cc-tuner`` — a TCPTuner-style c x beta grid of
  :class:`~repro.tcp.cc.tunable.TunableCubic` on the lossy wan104 /
  shallow-buffer cell, reporting steady throughput, retransmits, and a
  convergence metric (the ratio of the first post-omit 1 s interval to
  the last — how much of the final rate the flow reaches early).  The
  TCP-friendly ``alpha`` knob is measurably inert in these cells: at
  R&E bandwidth-delay products CUBIC operates in its cubic region,
  where the Reno-tracking slope never binds — so the sweep exercises
  the two knobs that do act, the cubic scale ``c`` and the backoff
  ``beta``.

Both campaigns are ordinary registry experiments: ``repro run cc-zoo``
renders the table + heatmap, digests are byte-identical between the
vector kernel and its scalar reference and across any ``--shards``
split, and the paper-shape tests assert the qualitative claims from
the golden campaign's rows.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.rng import RngFactory
from repro.experiments.base import Experiment, ExperimentResult
from repro.sim.flowsim import FlowSpec, SimProfile
from repro.sim.shard import FlowPopulation, ShardedFlowSimulator
from repro.testbeds.amlight import AmLightTestbed
from repro.tools.harness import HarnessConfig, TestHarness
from repro.tools.iperf3 import Iperf3Options

__all__ = ["CcZooCampaign", "CcTunerSweep"]

#: The zoo: every template-batchable algorithm, one canonical kind each
#: (plus a tuned CUBIC to put the TCPTuner knobs in the same table).
ZOO = (
    "cubic",
    "reno",
    "highspeed",
    "htcp",
    "scalable",
    "westwood",
    "tunable-cubic:alpha=1.5,beta=0.5",
)

PATHS = ("lan", "wan25", "wan54", "wan104")
SHALLOW_BUFFER_BYTES = 2 * 1024 * 1024
AGG_FLOWS = 256
AGG_PATH = "wan54"


def _with_buffer(path, buffer_name: str):
    if buffer_name == "deep":
        return path  # the testbed's stock switch (NoviFlow, 16 MB)
    return replace(
        path,
        switch=replace(path.switch, shared_buffer_bytes=SHALLOW_BUFFER_BYTES),
    )


def _heatmap(result: ExperimentResult) -> str:
    """Who-wins-where markdown: best mean gbps per (path, cell)."""
    cells = [
        ("deep", "unpaced"), ("deep", "paced"),
        ("shallow", "unpaced"), ("shallow", "paced"),
    ]
    lines = [
        "**Who wins where** (throughput winner per cell):",
        "",
        "| path | " + " | ".join(f"{b}/{p}" for b, p in cells) + " |",
        "|" + "|".join("---" for _ in range(len(cells) + 1)) + "|",
    ]
    for path in PATHS:
        winners = []
        for buffer_name, pacing in cells:
            rows = [
                r for r in result.rows
                if r["path"] == path and r["buffer"] == buffer_name
                and r["pacing"] == pacing
            ]
            # Deterministic winner: highest gbps, ties to the first
            # algorithm name alphabetically.
            best = sorted(rows, key=lambda r: (-r["gbps"], r["cc"]))[0]
            winners.append(f"{best['cc']} ({best['gbps']:.1f})")
        lines.append("| " + " | ".join([path] + winners) + " |")
    agg = sorted(
        (r for r in result.rows if r["pacing"] == f"agg{AGG_FLOWS}"),
        key=lambda r: (-r["gbps"], r["cc"]),
    )
    if agg:
        best = agg[0]
        lines += [
            "",
            f"{AGG_FLOWS}-flow aggregate on {AGG_PATH}: "
            f"**{best['cc']}** ({best['gbps']:.1f} Gbps) leads.",
        ]
    return "\n".join(lines)


class CcZooCampaign(Experiment):
    exp_id = "cc-zoo"
    title = "Congestion-control zoo: path x buffer x pacing cross product"
    paper_ref = "Section IV.F, extended beyond CUBIC/BBR"
    expectation = (
        "the high-BDP responses (scalable, highspeed, htcp) beat reno "
        "on every unpaced WAN cell and scalable tops every one of them "
        "outright; westwood is the most conservative algorithm in the "
        "zoo — fewest retransmits in the shallow-buffer cells and the "
        "256-flow aggregate — at an unpaced throughput cost that "
        "pacing mostly recovers; pacing narrows the spread between "
        "algorithms on deep buffers"
    )

    def run(self, config: HarnessConfig | None = None) -> ExperimentResult:
        config = config or HarnessConfig.bench()
        result = self._result(
            ["cc", "path", "buffer", "pacing", "gbps", "retr", "stdev"],
            notes=(
                "4-stream harness cells plus a 256-flow sharded aggregate; "
                "digests are kernel- and --shards-invariant"
            ),
        )
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        for path_name in PATHS:
            for buffer_name in ("deep", "shallow"):
                path = _with_buffer(tb.path(path_name), buffer_name)
                harness = TestHarness(snd, rcv, path, config)
                for pacing in ("unpaced", "paced"):
                    for cc in ZOO:
                        opts = Iperf3Options(
                            congestion=cc,
                            parallel=4,
                            zerocopy="z",
                            skip_rx_copy=True,
                            fq_rate_gbps=19 if pacing == "paced" else None,
                        )
                        res = harness.run(
                            opts,
                            label=f"{cc}/{path_name}/{buffer_name}/{pacing}",
                        )
                        result.add_row(
                            cc=cc,
                            path=path_name,
                            buffer=buffer_name,
                            pacing=pacing,
                            gbps=res.mean_gbps,
                            retr=int(res.mean_retransmits),
                            stdev=res.stdev_gbps,
                        )
        self._aggregate_cells(config, tb, snd, rcv, result)
        result.appendix = _heatmap(result)
        return result

    def _aggregate_cells(self, config, tb, snd, rcv, result) -> None:
        """256 flows of each algorithm through the sharded engine."""
        rng = RngFactory(seed=config.seed)
        path = tb.path(AGG_PATH)
        profile = SimProfile(
            duration=config.duration, tick=config.tick, omit=config.omit
        )
        for cc in ZOO:
            sim = ShardedFlowSimulator(
                snd, rcv, path,
                FlowPopulation.uniform(FlowSpec(cc=cc), AGG_FLOWS),
                profile=profile,
                rng=rng.fork(f"cc-zoo:agg:{cc}"),
            )
            gbps = []
            retr = []
            for rep in range(config.repetitions):
                run = sim.run(rep)
                gbps.append(run.total_gbps)
                window = run.duration - run.omit
                retr.append(run.retransmit_segments / window)
            result.add_row(
                cc=cc,
                path=AGG_PATH,
                buffer="deep",
                pacing=f"agg{AGG_FLOWS}",
                gbps=float(np.mean(gbps)),
                retr=int(np.mean(retr)),
                stdev=float(np.std(gbps)),
            )


#: TCPTuner grid: c scales the cubic growth term, beta the backoff.
#: Stock CUBIC is (c=0.4, beta=0.7).  The TCP-friendly alpha knob is
#: deliberately absent — at these BDPs the cubic region dominates and
#: alpha moves throughput by under a part per million (asserted in the
#: paper-shape tests).
TUNER_CS = (0.2, 0.4, 0.8, 1.6)
TUNER_BETAS = (0.3, 0.7, 0.9)
TUNER_PATH = "wan104"


class CcTunerSweep(Experiment):
    exp_id = "cc-tuner"
    title = "TCPTuner-style CUBIC parameter sweep (c x beta, wan104 shallow)"
    paper_ref = "Section IV.F; TCPTuner (Miller & Hsiao)"
    expectation = (
        "on the lossy shallow-buffer long path, gentler backoff (higher "
        "beta) trades retransmits for throughput at every c, steeply at "
        "beta=0.9; with stock-or-gentler backoff raising the cubic "
        "scale c lifts throughput, and deep backoff (beta=0.3) leaves "
        "low-c flows still climbing at the end of the run — a residual "
        "ramp that raising c repairs; the stock (0.4, 0.7) point is not "
        "the top of the grid; the TCP-friendly alpha knob is inert at "
        "these BDPs"
    )

    def run(self, config: HarnessConfig | None = None) -> ExperimentResult:
        config = config or HarnessConfig.bench()
        result = self._result(
            ["c", "beta", "gbps", "retr", "ramp"],
            notes=(
                "4 streams, wan104, 2 MB shallow buffer; ramp = first "
                "post-omit 1 s interval over the last (>= 1.0 means the "
                "flow converged within the first interval)"
            ),
        )
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        path = _with_buffer(tb.path(TUNER_PATH), "shallow")
        harness = TestHarness(snd, rcv, path, config)
        for c in TUNER_CS:
            for beta in TUNER_BETAS:
                kind = f"tunable-cubic:c={c},beta={beta}"
                res = harness.run(
                    Iperf3Options(congestion=kind, parallel=4),
                    label=f"tuner/c{c}/b{beta}",
                )
                ramps = []
                for r in res.runs:
                    marks = r.run.interval_goodput
                    if marks.size >= 2 and marks[-1] > 0:
                        ramps.append(float(marks[0] / marks[-1]))
                result.add_row(
                    c=c,
                    beta=beta,
                    gbps=res.mean_gbps,
                    retr=int(res.mean_retransmits),
                    ramp=float(np.mean(ramps)) if ramps else 1.0,
                )
        return result
