"""Run set-up and the path stage, shared by both simulation drivers.

:class:`~repro.sim.flowsim.FlowSimulator` (a handful of flows, one
global reduction per quantity) and
:class:`~repro.sim.shard.ShardedFlowSimulator` (10k+ flows in 32-lane
blocks) run the same physics.  Everything here is written once and
called by both:

* :class:`RunSetup` — the run-constant inputs built from the flow
  groups: segment geometry, socket profile, per-group CPU cost models,
  pacing caps and burst slacks, the run-noise draw (:func:`run_noise`),
  core shares, aggregate ceilings, budgets and the hoisted loop
  invariants;
* :class:`PathStage` — the per-tick path: background resample and RTT,
  the receiver's WAN rx-ceiling interference, and the switch buffer and
  NIC ring offers with their packet-train overflow, returned as drop
  volumes.

What stays per driver is how each one draws randomness, allocates,
places drops and reduces across flows.  The path stage therefore never
reduces across flows itself: a driver passes in the totals it asked
for (``switch_trains`` / ``ring_trains`` say when a train total is
needed at all).  The trace bus and the sanitizer come in as arguments,
so this module stays free of the observability layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import units
from repro.net.switch import SharedBufferQueue, SwitchModel
from repro.sim.cpumodel import CpuCostModel
from repro.sim.lossmodel import BurstModel, flow_release_slack
from repro.tcp.segment import SegmentGeometry
from repro.tcp.sockets import SocketProfile

__all__ = [
    "WAN_RX_AGG_PENALTY",
    "RX_CEILING_NOISE",
    "run_noise",
    "RunSetup",
    "PathStage",
    "emit_run_start",
    "emit_run_end",
]

#: Receiver aggregate ceiling degradation on large-window (WAN) workloads:
#: hundred-MB receive backlogs defeat the LLC and DDIO, costing up to
#: this fraction of the host's aggregate receive bandwidth.  This is the
#: mechanism behind the paper's observation that ESnet WAN parallel
#: streams interfere "any time the total bandwidth attempted is over
#: 120 Gbps" while the same hosts sustain 166 Gbps on the LAN.
WAN_RX_AGG_PENALTY = 0.30

#: Relative per-tick jitter of the receiver aggregate ceiling at full
#: WAN exposure (LLC / memory-controller / softirq contention noise).
RX_CEILING_NOISE = 0.05


def run_noise(jitter_rng: np.random.Generator, sender, receiver) -> float:
    """Run-to-run hardware/placement jitter on CPU-derived limits.

    A single multiplicative factor per run (thermal/clock/scheduler
    noise plus any VM overhead noise).
    """
    noise = 1.0 + jitter_rng.normal(
        0.0, 0.012 + sender.vm.jitter + receiver.vm.jitter
    )
    return float(np.clip(noise, 0.85, 1.15))


class RunSetup:
    """The run-constant inputs of one simulated test.

    ``groups`` are ``(FlowSpec, count)`` pairs in lane order; ``pads``
    inert copying lanes (fq-unpaced, slack 0) follow them and are left
    out of the aggregate-ceiling mins.  The drivers pass their own RNG
    streams, so each keeps its stream labels.  ``burst`` only answers
    the slack question (:func:`flow_release_slack`); it draws nothing.
    """

    def __init__(
        self,
        sender,
        receiver,
        path,
        groups: Sequence[tuple[object, int]],
        profile,
        *,
        place_rng: np.random.Generator,
        jitter_rng: np.random.Generator,
        burst: BurstModel,
        pads: int = 0,
    ) -> None:
        self.path = path
        self.n = n = sum(count for _, count in groups)
        self.dt = dt = profile.tick
        self.duration = profile.duration
        self.omit = profile.omit
        self.n_ticks = int(round(profile.duration / dt))

        snd_place = sender.resolved_placement(place_rng)
        rcv_place = receiver.resolved_placement(place_rng)
        geom_tx = SegmentGeometry(
            mtu=sender.tuning.mtu,
            gso_size=sender.effective_gso_size(),
            gro_size=receiver.effective_gro_size(),
        )
        sockets = SocketProfile.from_sysctls(sender.sysctls, receiver.sysctls)

        # One cost-model pair per flow class, repeated per lane: the
        # models are immutable, so sharing them changes no number.
        group_tx: list[CpuCostModel] = []
        group_rx: list[CpuCostModel] = []
        self.send_models: list[CpuCostModel] = []
        self.recv_models: list[CpuCostModel] = []
        pace_parts: list[np.ndarray] = []
        slack_parts: list[np.ndarray] = []
        for spec, count in groups:
            model_tx = CpuCostModel(sender, geom_tx, snd_place, zerocopy=spec.zerocopy)
            model_rx = CpuCostModel(
                receiver, geom_tx, rcv_place, skip_rx_copy=spec.skip_rx_copy
            )
            group_tx.append(model_tx)
            group_rx.append(model_rx)
            self.send_models.extend([model_tx] * count)
            self.recv_models.extend([model_rx] * count)
            pacing = spec.pacing
            pace_parts.append(
                np.full(count, pacing.effective_rate() if pacing.enabled else np.inf)
            )
            slack_parts.append(
                np.full(count, flow_release_slack(pacing, spec.zerocopy, burst))
            )
        if pads:
            self.send_models.extend([CpuCostModel(sender, geom_tx, snd_place)] * pads)
            self.recv_models.extend([CpuCostModel(receiver, geom_tx, rcv_place)] * pads)
            pace_parts.append(np.full(pads, np.inf))
            slack_parts.append(np.zeros(pads))
        self.pace_eff = np.concatenate(pace_parts)
        self.slacks = np.concatenate(slack_parts)
        # All-fq-paced runs draw burst randomness but multiply it away
        # (slack 0); every stage hoists that check out of the loop.
        self.all_smooth = not bool(self.slacks.any())

        # Looked up as a module global at call time, so tests can pin it.
        self.run_noise = noise = run_noise(jitter_rng, sender, receiver)
        # Core shares: flows spread over the app/IRQ core sets.
        self.snd_app_share = min(1.0, len(snd_place.app_cores) / n)
        self.rcv_app_share = min(1.0, len(rcv_place.app_cores) / n)
        self.rcv_irq_share = min(1.0, len(rcv_place.irq_cores) / n)
        agg_tx = min(m.aggregate_tx_ceiling() for m in group_tx) * noise
        self.agg_rx_base = min(m.aggregate_rx_ceiling() for m in group_rx) * noise
        self.budget_tx = sender.core_cycles_per_sec() * noise
        self.budget_rx = receiver.core_cycles_per_sec() * noise

        # Loop invariants, hoisted.  Every quantity is a pure function
        # of run-constant inputs, so the per-tick values are
        # bit-identical to recomputing them inside the loop.
        self.mss = mss = geom_tx.mss
        self.react10 = 10 * mss
        self.fp_floor = 64 * geom_tx.gso_size
        self.fp_cap = sockets.max_send_window * 2.0
        self.max_window = sockets.max_window
        self.l3_20 = 20.0 * receiver.cpu.l3_effective_bytes
        self.n_exposure = min(1.0, n / 4.0)
        self.eff = eff = geom_tx.wire_efficiency
        self.physical = physical = path.bottleneck.rate_bytes_per_sec
        self.path_cap_good = path.capacity * eff
        self.cap_floor = 0.05 * self.path_cap_good
        cap_avg = max(
            self.cap_floor,
            min(path.capacity, physical - path.background.mean_bytes_per_sec) * eff,
        )
        self.capacity = min(cap_avg, agg_tx)
        self.line1_den = max(min(sender.nic.speed_bytes_per_sec, physical) * eff, 1.0)
        self.line2_den = max(physical * eff, 1.0)
        self.buf1 = path.switch.shared_buffer_bytes
        self.buf2 = receiver.rx_ring_bytes()
        self.steps_per_bg = max(1, int(round(0.02 / dt)))  # resample bg every ~20 ms

    def kernel(self, kernel_class, ccs, lanes: slice = slice(None)):
        """A tick kernel over ``lanes``; ``ccs`` covers those lanes."""
        return kernel_class(
            ccs,
            self.send_models[lanes],
            self.recv_models[lanes],
            run_noise=self.run_noise,
            snd_app_share=self.snd_app_share,
            rcv_app_share=self.rcv_app_share,
            rcv_irq_share=self.rcv_irq_share,
            budget_rx=self.budget_rx,
            agg_rx_base=self.agg_rx_base,
        )


class PathStage:
    """Per-tick path state: background, RTT, receiver ceiling, queues.

    The stage owns the bottleneck switch buffer and, behind it, the
    receiver NIC ring.  The backbone switch queue always tail-drops:
    even on flow-control paths, 802.3x protects only the receiver's
    access link — backbone congestion still loses packets.  Per tick a
    driver calls :meth:`begin`, :meth:`receiver_ceiling`,
    :meth:`offer_switch` and :meth:`offer_ring`, in that order.
    """

    def __init__(
        self, setup: RunSetup, bg_rng: np.random.Generator, *, bus, san
    ) -> None:
        path = setup.path
        self.setup = setup
        self.background = path.background
        self.bg_rng = bg_rng
        self.bus = bus
        self.san = san
        self.dt = setup.dt
        self.flow_control = path.flow_control
        self.base_rtt = path.rtt_sec
        backbone = SwitchModel(
            model=path.switch.model,
            shared_buffer_bytes=setup.buf1,
            supports_flow_control=False,
        )
        self.q_switch = SharedBufferQueue(backbone, drain_rate=setup.path_cap_good)
        ring = SwitchModel(
            model="rx-ring",
            shared_buffer_bytes=setup.buf2,
            supports_flow_control=path.flow_control,
        )
        self.q_ring = SharedBufferQueue(ring, drain_rate=setup.path_cap_good)
        # With no trace bus and no sanitizer attached, an offer that a
        # queue passes straight through (empty queue, arrivals within
        # the drain) has no observable effect besides its return value
        # (delivered = offered, nothing dropped), so the method call can
        # be elided with the same numbers.
        self.fast_q = bus is None and san is None
        self._set_background(0.0)

    def _set_background(self, bg_sample: float) -> None:
        s = self.setup
        cap_net = max(
            s.cap_floor, min(s.path.capacity, s.physical - bg_sample) * s.eff
        )
        self.cap_net = cap_net
        self.drained1 = cap_net * self.dt
        self.fill1 = max(0.0, 1.0 - cap_net / s.line1_den)
        # ``all_smooth`` ticks have all-zero trains, so the overflow
        # reduces to max(0, -headroom) == 0; no train total is needed.
        self.switch_trains = self.fill1 > 0.0 and not s.all_smooth

    def begin(self, step: int) -> tuple[float, float]:
        """Open tick ``step``: clock, background resample, RTT.

        Returns ``(now, rtt)``.  The clock is the closed form, not
        ``now += dt``: a million accumulated float adds drift it by
        enough to flip boundary comparisons downstream (lint rule
        FLOAT002 flags the accumulating pattern in simulation code).
        TCP adapts to the *average* background; the micro-burst sample
        drives the switch drain, so spikes show up as queueing and loss,
        not as an instant, clairvoyant rate adjustment.
        """
        now = (step + 1) * self.dt
        if self.bus is not None:
            self.bus.set_time(now)
        if self.san is not None:
            self.san.check_time(now)
        if self.background.active and step % self.setup.steps_per_bg == 0:
            self._set_background(float(self.background.sample(self.bg_rng, 1)[0]))
        q = self.q_switch
        self.rtt = rtt = self.base_rtt + q.occupancy / max(q.drain_rate, 1.0)
        self.tick_per_rtt = self.dt / max(rtt, self.dt)
        return now, rtt

    def receiver_ceiling(
        self, total_foot: float, rcv_total: float, noise_z: float
    ) -> None:
        """This tick's NIC ring drain from the receiver's ceilings.

        The receiver's aggregate ceiling is deliberately NOT part of
        the allocation: senders do not know it.  It appears as the ring
        drain, so exceeding it costs losses (the paper's >120 Gbps WAN
        interference), not a clean cap.  Exposure grows with the total
        receive working set ``total_foot`` and with the number of
        competing receiver processes — one stream cannot thrash the LLC
        the way eight iperf3 threads do.  The ceiling is noisy tick to
        tick (``noise_z``, a standard normal): flows close to it keep
        clipping the dips, which is where the paper's sustained WAN
        retransmit counts come from.  ``rcv_total`` is the sum of the
        per-flow receiver CPU limits.
        """
        s = self.setup
        rx_exposure = min(1.0, total_foot / s.l3_20) * s.n_exposure
        z = noise_z if -2.5 <= noise_z <= 2.5 else (-2.5 if noise_z < -2.5 else 2.5)
        rx_noise = 1.0 + RX_CEILING_NOISE * rx_exposure * z
        agg_rx = s.agg_rx_base * (1.0 - WAN_RX_AGG_PENALTY * rx_exposure) * rx_noise
        self.rcv_drain = min(agg_rx, rcv_total)
        self.fill2 = max(0.0, 1.0 - self.rcv_drain / s.line2_den)
        self.ring_trains = (
            self.fill2 > 0.0 and not s.all_smooth and not self.flow_control
        )

    def _offer(self, q: SharedBufferQueue, label: str, offered: float) -> float:
        """One queue offer, audited under the sanitizer; returns the
        standing drop volume."""
        occ_before = q.occupancy
        delivered, dropped = q.offer(offered, self.dt)
        if self.san is not None:
            self.san.account_link(
                label,
                offered=offered,
                delivered=delivered,
                dropped=dropped,
                queue_before=occ_before,
                queue_after=q.occupancy,
                flow_control=q.switch.supports_flow_control,
            )
        return dropped

    def offer_switch(self, offered: float, trains: float) -> tuple[float, float]:
        """Push ``offered`` bytes through the switch buffer.

        Standing queues carry the *average* volume; packet trains are
        per-RTT time compression: each RTT a train of ``trains`` bytes
        (the total train volume, needed only when ``switch_trains``)
        arrives at line rate, the fraction the drain cannot absorb
        deposits into the buffer, and the part beyond the free headroom
        is tail-dropped, converted to a per-tick volume by dt/rtt.
        Returns ``(train drop volume, standing drop volume)``.
        """
        q = self.q_switch
        q.drain_rate = self.cap_net
        # Exact == 0.0 is intentional: offer() assigns occupancy = 0.0
        # exactly when the queue empties, and the elision is only valid
        # in that exact state.
        if self.fast_q and q.occupancy == 0.0 and offered <= self.drained1:  # repro: noqa-FLOAT001
            dropped = 0.0
        else:
            dropped = self._offer(q, "switch-buffer", offered)
        if self.switch_trains:
            headroom1 = max(0.0, self.setup.buf1 - q.occupancy)
            overflow1 = max(0.0, trains * self.fill1 - headroom1)
        else:
            overflow1 = 0.0
        return overflow1 * self.tick_per_rtt, dropped

    def offer_ring(self, offered: float, trains: float) -> tuple[float, float]:
        """Push what survived the switch through the receiver NIC ring.

        Trains arrive at the path's bottleneck line rate; ``trains`` is
        their surviving total, needed only when ``ring_trains``.  On an
        IEEE 802.3x path pause frames hold the overflow upstream and
        nothing is dropped here.  Returns ``(train drop volume,
        standing drop volume)``.
        """
        q = self.q_ring
        q.drain_rate = self.rcv_drain
        # Same exact-empty-state guard as the switch queue.
        if self.fast_q and q.occupancy == 0.0 and offered <= self.rcv_drain * self.dt:  # repro: noqa-FLOAT001
            dropped = 0.0
        else:
            dropped = self._offer(q, "rx-ring", offered)
        if self.san is not None:
            self.san.check_non_negative(
                "queue occupancy", (self.q_switch.occupancy, q.occupancy)
            )
            self.san.check_positive("rtt", self.rtt)
        if self.flow_control:
            return 0.0, 0.0
        if self.ring_trains:
            headroom2 = max(0.0, self.setup.buf2 - q.occupancy)
            overflow2 = max(0.0, trains * self.fill2 - headroom2)
        else:
            overflow2 = 0.0
        return overflow2 * self.tick_per_rtt, dropped


def emit_run_start(bus, setup: RunSetup, rep: int) -> None:
    """The ``run.start`` event; no shard count, so the stream is
    shard-count-invariant."""
    if bus is not None:
        bus.emit(
            "run",
            "run.start",
            rep=rep,
            flows=setup.n,
            path=setup.path.name,
            duration=setup.duration,
            tick=setup.dt,
            rtt_ms=units.seconds_to_ms(setup.path.rtt_sec),
            flow_control=setup.path.flow_control,
        )


def emit_run_end(bus, setup: RunSetup, rep: int, result) -> None:
    """The ``run.end`` event summarizing ``result``."""
    if bus is not None:
        bus.emit(
            "run",
            "run.end",
            rep=rep,
            flows=setup.n,
            gbps=round(result.total_gbps, 6),
            retransmit_segments=round(result.retransmit_segments, 3),
            loss_events=result.loss_events,
        )
