"""The fluid flow simulator: N TCP flows between two hosts over a path.

This is the engine behind every experiment in the reproduction.  It
advances in fixed ticks (default 2 ms); each tick it

1. computes every flow's *rate caps* — window rate (cwnd / RTT),
   pacing rate (fq or BBR-internal), sender per-core CPU limit,
   receiver per-core CPU limit;
2. computes the *shared capacity* — path rate net of background
   traffic, the sender host's aggregate ceiling, the receiver host's
   aggregate ceiling — and allocates it max-min fairly;
3. applies the burst model: unpaced flows' arrivals are inflated by
   stochastic packet-train factors that grow with cwnd (see
   :mod:`repro.sim.lossmodel`);
4. pushes arrivals through two queues in series — the bottleneck
   switch's shared buffer, then the receiver NIC ring.  Overflow is
   tail-dropped unless the path has IEEE 802.3x flow control, in which
   case the ring backpressures instead of dropping;
5. feeds losses and deliveries back into each flow's congestion
   control, and accumulates throughput/retransmit/CPU metrics.

The result of :meth:`FlowSimulator.run` corresponds to one iperf3
invocation; the harness repeats runs with different RNG streams to get
the paper's mean/stdev/min/max statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.net.switch import SharedBufferQueue, SwitchModel
from repro.sim.bottleneck import maxmin_allocate
from repro.sim.cpumodel import CpuCostModel
from repro.sim.kernels import VectorKernel
from repro.sim.lossmodel import BurstModel, concentrate_drops, flow_release_slack
from repro.sim.metrics import MetricsAccumulator, RunResult
from repro.sim.sanitizer import SimSanitizer
from repro.sim.sanitizer import enabled as sanitizer_enabled
from repro.tcp.cc import make_cc
from repro.tcp.pacing import PacingConfig
from repro.tcp.segment import SegmentGeometry
from repro.tcp.sockets import SocketProfile
from repro.trace.bus import TraceBus
from repro.trace.bus import active as trace_active
from repro.trace.ledger import FlowConservationLedger
from repro.trace.probes import mpstat_probe, nic_probe, socket_probe

__all__ = ["FlowSpec", "SimProfile", "FlowSimulator"]

#: Receiver aggregate ceiling degradation on large-window (WAN) workloads:
#: hundred-MB receive backlogs defeat the LLC and DDIO, costing up to
#: this fraction of the host's aggregate receive bandwidth.  This is the
#: mechanism behind the paper's observation that ESnet WAN parallel
#: streams interfere "any time the total bandwidth attempted is over
#: 120 Gbps" while the same hosts sustain 166 Gbps on the LAN.
WAN_RX_AGG_PENALTY = 0.30

#: A flow's congestion control reacts when more than this fraction of
#: its tick arrival was dropped (smaller fractions model SACK-repaired
#: stragglers that do not trigger a window reduction).
LOSS_REACT_FRACTION = 5e-4

#: Relative per-tick jitter of the receiver aggregate ceiling at full
#: WAN exposure (LLC / memory-controller / softirq contention noise).
RX_CEILING_NOISE = 0.05


@dataclass(frozen=True)
class FlowSpec:
    """Configuration of one TCP flow (one iperf3 stream)."""

    pacing: PacingConfig = field(default_factory=PacingConfig.unpaced)
    zerocopy: bool = False
    skip_rx_copy: bool = False
    cc: str = "cubic"
    label: str = ""

    def with_pacing_gbps(self, gbps_value: float) -> "FlowSpec":
        return replace(self, pacing=PacingConfig.fq_rate_gbps(gbps_value))


@dataclass(frozen=True)
class SimProfile:
    """Time resolution and duration of a simulated test."""

    duration: float = 20.0
    tick: float = 0.002
    omit: float = 3.0

    def __post_init__(self) -> None:
        if self.tick <= 0 or self.duration <= self.omit:
            raise ConfigurationError("need tick > 0 and duration > omit")

    @classmethod
    def paper(cls) -> "SimProfile":
        """60-second tests as in the paper."""
        return cls(duration=60.0, tick=0.002, omit=3.0)

    @classmethod
    def quick(cls) -> "SimProfile":
        """Short runs for unit tests."""
        return cls(duration=6.0, tick=0.004, omit=1.5)


class FlowSimulator:
    """Simulates a set of flows between ``sender`` and ``receiver``."""

    #: The per-tick hook implementation (:mod:`repro.sim.kernels`).  A
    #: test seam, not an option: parity tests swap in the byte-identical
    #: ``ScalarKernel`` reference to check this one against it.
    kernel_class = VectorKernel

    def __init__(
        self,
        sender: Host,
        receiver: Host,
        path: NetworkPath,
        flows: list[FlowSpec],
        profile: SimProfile | None = None,
        rng: RngFactory | None = None,
    ) -> None:
        if not flows:
            raise ConfigurationError("need at least one flow")
        self.sender = sender
        self.receiver = receiver
        self.path = path
        self.flows = list(flows)
        self.profile = profile or SimProfile()
        self.rng = rng or RngFactory(seed=1)
        self._validate()

    # ------------------------------------------------------------------

    def _validate(self) -> None:
        any_zc = any(f.zerocopy for f in self.flows)
        if any_zc:
            self.sender.require_zerocopy()
            self.sender.check_zerocopy_bigtcp_combo()
        for f in self.flows:
            # Instantiating checks the cc name early.
            make_cc(f.cc)

    # ------------------------------------------------------------------

    def run(self, rep: int = 0) -> RunResult:
        """Simulate one test run (≈ one iperf3 invocation)."""
        prof = self.profile
        n = len(self.flows)
        dt = prof.tick

        san = (
            SimSanitizer(context=f"flowsim rep={rep}")
            if sanitizer_enabled()
            else None
        )

        jitter_rng = self.rng.stream("hostjitter", rep)
        burst_rng = self.rng.stream("burst", rep)
        bg_rng = self.rng.stream("background", rep)
        place_rng = self.rng.stream("placement", rep)
        if san is not None:
            san.check_stream_registry(self.rng)

        snd_place = self.sender.resolved_placement(place_rng)
        rcv_place = self.receiver.resolved_placement(place_rng)

        geom_tx = SegmentGeometry(
            mtu=self.sender.tuning.mtu,
            gso_size=self.sender.effective_gso_size(),
            gro_size=self.receiver.effective_gro_size(),
        )
        sockets = SocketProfile.from_sysctls(self.sender.sysctls, self.receiver.sysctls)

        # Observability.  The ambient trace bus (if one is installed)
        # receives events and probes; the sanitizer additionally audits
        # per-flow conservation by consuming the same "flow.tick" wire
        # format through a private single-sink bus, so the ledger
        # exercises the exact stream exports would see.  Every emission
        # below is observational — no RNG draws, no state the simulated
        # numbers depend on.
        bus = trace_active()
        self.last_ledger = None
        ledger_bus = None
        if san is not None:
            ledger = FlowConservationLedger(
                n, mss=float(geom_tx.mss), context=f"flowsim rep={rep}"
            )
            self.last_ledger = ledger
            ledger_bus = TraceBus(sinks=[ledger])
        want_flow = bus is not None and bus.wants("flow")
        want_probe = bus is not None and bus.wants("probe")
        want_cc = bus is not None and bus.wants("cc")
        want_zc = bus is not None and bus.wants("zerocopy")
        emit_flow = want_flow or ledger_bus is not None
        probe_stride = 0
        drops_cum = None
        if want_probe:
            probe_stride = max(1, int(round(bus.probe_interval / dt)))
            drops_cum = np.zeros(n)

        send_models = [
            CpuCostModel(self.sender, geom_tx, snd_place, zerocopy=f.zerocopy)
            for f in self.flows
        ]
        recv_models = [
            CpuCostModel(self.receiver, geom_tx, rcv_place, skip_rx_copy=f.skip_rx_copy)
            for f in self.flows
        ]

        ccs = [make_cc(f.cc, mss=float(geom_tx.mss)) for f in self.flows]
        pace_eff = np.array(
            [
                f.pacing.effective_rate() if f.pacing.enabled else np.inf
                for f in self.flows
            ]
        )
        burst = BurstModel(rng=burst_rng)
        slacks = np.array(
            [
                flow_release_slack(f.pacing, f.zerocopy, burst)
                for f in self.flows
            ]
        )

        # Run-to-run hardware/placement jitter: a single multiplicative
        # factor per run on CPU-derived limits (thermal/clock/scheduler
        # noise plus any VM overhead noise).
        run_noise = 1.0 + jitter_rng.normal(
            0.0, 0.012 + self.sender.vm.jitter + self.receiver.vm.jitter
        )
        run_noise = float(np.clip(run_noise, 0.85, 1.15))

        # Core shares: flows spread over the app/IRQ core sets.
        snd_app_share = min(1.0, len(snd_place.app_cores) / n)
        rcv_app_share = min(1.0, len(rcv_place.app_cores) / n)
        rcv_irq_share = min(1.0, len(rcv_place.irq_cores) / n)

        # Queues: bottleneck switch buffer, then the receiver NIC ring.
        # The backbone switch queue always tail-drops: even on
        # flow-control paths, 802.3x protects only the receiver's access
        # link — backbone congestion still loses packets.
        eff = geom_tx.wire_efficiency
        path_cap_good = self.path.capacity * eff
        backbone = SwitchModel(
            model=self.path.switch.model,
            shared_buffer_bytes=self.path.switch.shared_buffer_bytes,
            supports_flow_control=False,
        )
        q_switch = SharedBufferQueue(backbone, drain_rate=path_cap_good)
        ring_switch = SwitchModel(
            model="rx-ring",
            shared_buffer_bytes=self.receiver.rx_ring_bytes(),
            supports_flow_control=self.path.flow_control,
        )
        q_ring = SharedBufferQueue(ring_switch, drain_rate=path_cap_good)

        agg_tx = min(m.aggregate_tx_ceiling() for m in send_models) * run_noise
        agg_rx_base = min(m.aggregate_rx_ceiling() for m in recv_models) * run_noise

        metrics = MetricsAccumulator(n, prof.duration, prof.omit)
        base_rtt = self.path.rtt_sec

        budget_tx = self.sender.core_cycles_per_sec() * run_noise
        budget_rx = self.receiver.core_cycles_per_sec() * run_noise

        # The tick kernel (``kernel_class``: the vectorized fast path, or
        # the scalar reference under test) owns the warm per-flow state —
        # congestion windows and the damped receiver CPU limit — and the
        # four per-flow hooks.  Everything else in the loop below is
        # shared driver code: RNG draws, cross-flow reductions, queues,
        # and trace emission, so the kernels are byte-interchangeable.
        kern = self.kernel_class(
            ccs=ccs,
            send_models=send_models,
            recv_models=recv_models,
            run_noise=run_noise,
            snd_app_share=snd_app_share,
            rcv_app_share=rcv_app_share,
            rcv_irq_share=rcv_irq_share,
            budget_rx=budget_rx,
            agg_rx_base=agg_rx_base,
        )
        max_window = sockets.max_window
        prev_alloc = np.zeros(n)
        persistent_w = burst.persistent_weights(slacks)

        n_ticks = int(round(prof.duration / dt))
        steps_per_bg = max(1, int(round(0.02 / dt)))  # resample bg every ~20 ms
        bg_sample = 0.0

        # Loop invariants, hoisted.  Every quantity below is a pure
        # function of run-constant inputs (or of ``bg_sample``, which
        # only changes in the resample branch), so the per-tick values
        # are bit-identical to recomputing them inside the loop.
        mss = geom_tx.mss
        react10 = 10 * mss
        fp_floor = 64 * geom_tx.gso_size
        fp_cap = sockets.max_send_window * 2.0
        l3_20 = 20.0 * self.receiver.cpu.l3_effective_bytes
        n_exposure = min(1.0, n / 4.0)
        physical = self.path.bottleneck.rate_bytes_per_sec
        bg_mean = self.path.background.mean_bytes_per_sec
        path_capacity = self.path.capacity
        cap_floor = 0.05 * path_cap_good
        cap_avg = max(cap_floor, min(path_capacity, physical - bg_mean) * eff)
        capacity = min(cap_avg, agg_tx)
        line1_den = max(
            min(self.sender.nic.speed_bytes_per_sec, physical) * eff, 1.0
        )
        line2_den = max(physical * eff, 1.0)
        buf1 = self.path.switch.shared_buffer_bytes
        buf2 = self.receiver.rx_ring_bytes()
        bg_active = self.path.background.active
        flow_control = self.path.flow_control
        cap_net = max(cap_floor, min(path_capacity, physical - bg_sample) * eff)
        fill1 = max(0.0, 1.0 - cap_net / line1_den)
        # Shared all-zero per-flow array for drop-free ticks (never
        # mutated) and the matching empty loss index.
        zeros = np.zeros(n)
        empty_idx = np.zeros(0, dtype=np.intp)
        zc_flows = [i for i in range(n) if send_models[i].zc_model is not None]
        # ndarray.sum() dispatches to np.add.reduce; calling the ufunc
        # directly skips a wrapper layer with identical pairwise bits.
        asum = np.add.reduce
        # With no trace bus and no sanitizer attached, an offer that a
        # queue passes straight through (empty queue, arrivals within
        # the drain) has no observable effect besides its return value,
        # so the method call can be elided with the same numbers.
        fast_q = bus is None and san is None
        drained1 = cap_net * dt
        # All-fq-paced runs draw burst randomness but multiply it away
        # (slack 0); hoist that check out of the loop.
        all_smooth = not bool(slacks.any())
        # Per-tick scratch buffers.  Each is fully rewritten every tick
        # before its first read, and nothing per-tick survives the tick
        # through a buffer (``prev_alloc`` keeps the freshly allocated
        # maxmin output, never scratch).  ``out=`` only changes where
        # results land, never their bits.
        wr_buf = np.empty(n)
        foot_buf = np.empty(n)
        caps_buf = np.empty(n)
        sent_buf = np.empty(n)
        drate_buf = np.empty(n)
        acc_buf = np.empty(n)
        mask_f1 = np.empty(n)
        mask_b1 = np.empty(n, dtype=bool)
        mask_b2 = np.empty(n, dtype=bool)

        if bus is not None:
            bus.emit(
                "run",
                "run.start",
                rep=rep,
                flows=n,
                path=self.path.name,
                duration=prof.duration,
                tick=dt,
                rtt_ms=units.seconds_to_ms(base_rtt),
                flow_control=self.path.flow_control,
            )

        rtt = base_rtt
        for step in range(n_ticks):
            # Closed form, not `now += dt`: a million accumulated float
            # adds drift the clock by enough to flip boundary
            # comparisons downstream (lint rule FLOAT002 flags the
            # accumulating pattern in simulation code).
            now = (step + 1) * dt
            if bus is not None:
                bus.set_time(now)
            if ledger_bus is not None:
                ledger_bus.set_time(now)
            if san is not None:
                san.check_time(now)
            if bg_active and step % steps_per_bg == 0:
                bg_sample = float(self.path.background.sample(bg_rng, 1)[0])
                cap_net = max(
                    cap_floor, min(path_capacity, physical - bg_sample) * eff
                )
                fill1 = max(0.0, 1.0 - cap_net / line1_den)
                drained1 = cap_net * dt

            queue_delay = q_switch.occupancy / max(q_switch.drain_rate, 1.0)
            rtt = base_rtt + queue_delay

            # --- per-flow caps -------------------------------------------
            cwnd = kern.cwnd
            window_rate = np.divide(cwnd, max(rtt, 1e-6), out=wr_buf)
            pace = kern.pacing(rtt, pace_eff)

            # Working set the sender actually touches: the in-flight
            # bytes (~rate*RTT) plus qdisc/socket slack — NOT the raw
            # cwnd, which can sit far above what an app-limited flow
            # uses (cwnd validation below keeps them close anyway).
            # (min/max are exact and commutative here — both operands
            # are ordinary positive floats, so swapped-argument ties
            # return identical bits; ``c * x`` rounds as ``x * c``.)
            np.multiply(prev_alloc, rtt, out=foot_buf)
            np.multiply(foot_buf, 1.5, out=foot_buf)
            np.maximum(foot_buf, fp_floor, out=foot_buf)
            np.minimum(foot_buf, cwnd, out=foot_buf)
            footprint = np.minimum(foot_buf, fp_cap, out=foot_buf)
            snd_limit, rcv_limit = kern.cpu_limits(rtt, footprint)

            # Same left-fold association as np.minimum.reduce([...]).
            caps = np.minimum(window_rate, pace, out=caps_buf)
            np.minimum(caps, snd_limit, out=caps)
            np.minimum(caps, rcv_limit, out=caps)

            # --- shared capacity ----------------------------------------
            # The receiver's aggregate ceiling is deliberately NOT part
            # of the allocation: senders do not know it.  It appears as
            # the ring drain below, so exceeding it costs losses (the
            # paper's >120 Gbps WAN interference), not a clean cap.
            # Exposure grows with the total receive working set and with
            # the number of competing receiver processes — one stream
            # cannot thrash the LLC the way eight iperf3 threads do.
            # (Background traffic shares the *physical* link; the admin
            # cap applies to test traffic only.  TCP adapts to the
            # *average* background — the micro-burst sample drives the
            # queue drain below, so spikes show up as queueing and
            # loss, not as an instant, clairvoyant rate adjustment.)
            total_foot = float(asum(footprint))
            rx_exposure = min(1.0, total_foot / l3_20) * n_exposure
            # One fused burst-model draw covers this tick's rx-ceiling
            # noise, max-min weight jitter, and packet-train volumes —
            # a single RNG call whose consumption order is part of the
            # shared driver, hence identical across kernels.
            noise_z, weights, trains = burst.tick_draw(
                persistent_w, slacks, cwnd, smooth=all_smooth
            )
            # The ceiling is noisy tick to tick (LLC/memory-controller
            # contention, softirq scheduling): flows operating close to
            # it keep clipping the dips, which is where the paper's
            # sustained WAN retransmit counts come from.
            z = noise_z if -2.5 <= noise_z <= 2.5 else (
                -2.5 if noise_z < -2.5 else 2.5
            )
            rx_noise = 1.0 + RX_CEILING_NOISE * rx_exposure * z
            agg_rx = agg_rx_base * (1.0 - WAN_RX_AGG_PENALTY * rx_exposure) * rx_noise

            # Weights come out of the lognormal jitter (positive by
            # construction), so the validation pass is skipped.  Always
            # route through the module global (the allocator has its own
            # uncongested fast path) so it stays swappable under test.
            alloc = maxmin_allocate(caps, capacity, weights, validate=False)

            # --- queues + packet-train loss ------------------------------
            # Standing queues carry the *average* volume (sum of
            # allocations never exceeds the drain by construction, so
            # they only build transiently when background-traffic spikes
            # eat into the drain).  Packet trains are per-RTT
            # time-compression: each RTT a train of V_i bytes arrives at
            # line rate; the fraction the drain cannot absorb deposits
            # into the buffer, and the part beyond the free headroom is
            # tail-dropped.  Train overflow is converted to a per-tick
            # drop volume by dt/rtt.
            sent = np.multiply(alloc, dt, out=sent_buf)  # goodput bytes emitted
            tick_per_rtt = dt / max(rtt, dt)

            q_switch.drain_rate = cap_net
            occ1_before = q_switch.occupancy
            offered1 = float(asum(sent))
            # Exact == 0.0 is intentional: offer() assigns occupancy
            # = 0.0 exactly when the queue empties, and the elision is
            # only valid in that exact state.
            if fast_q and occ1_before == 0.0 and offered1 <= drained1:  # repro: noqa-FLOAT001
                # offer() would serve everything from an empty queue:
                # delivered = arrivals, no state change, nothing to
                # trace.  Same numbers as the call, minus the call.
                delivered1, dropped_std1 = offered1, 0.0
            else:
                delivered1, dropped_std1 = q_switch.offer(offered1, dt)
            if san is not None:
                san.account_link(
                    "switch-buffer",
                    offered=offered1,
                    delivered=delivered1,
                    dropped=dropped_std1,
                    queue_before=occ1_before,
                    queue_after=q_switch.occupancy,
                )
            # Drop-free ticks short-circuit to the shared zero array:
            # ``concentrate_drops`` returns all-zeros without touching
            # the RNG when its drop volume is 0, and adding a zero
            # array to non-negative drops is a bitwise no-op, so the
            # skipped calls cannot change any number downstream.
            # ``all_smooth`` ticks have all-zero trains, so both
            # overflow expressions reduce to max(0, -headroom) == 0;
            # skipping the sums changes nothing.
            if fill1 > 0.0 and not all_smooth:
                headroom1 = max(0.0, buf1 - q_switch.occupancy)
                overflow1 = max(0.0, float(asum(trains)) * fill1 - headroom1)
            else:
                overflow1 = 0.0
            ov1 = overflow1 * tick_per_rtt
            if ov1 > 0.0:
                drops1 = concentrate_drops(burst_rng, trains, ov1)
                if dropped_std1 > 0.0:
                    drops1 += concentrate_drops(burst_rng, sent, dropped_std1)
            elif dropped_std1 > 0.0:
                drops1 = concentrate_drops(burst_rng, sent, dropped_std1)
            else:
                drops1 = zeros

            # Receiver NIC ring: drains at what the receiver actually
            # consumes; trains arrive at the path's bottleneck line rate.
            rcv_drain = min(agg_rx, float(asum(rcv_limit)))
            after1 = sent if drops1 is zeros else np.maximum(0.0, sent - drops1)
            q_ring.drain_rate = rcv_drain
            occ2_before = q_ring.occupancy
            # On drop-free ticks after1 IS sent, whose sum is offered1.
            offered2 = offered1 if after1 is sent else float(asum(after1))
            # Same exact-empty-state guard as the switch queue above.
            if fast_q and occ2_before == 0.0 and offered2 <= rcv_drain * dt:  # repro: noqa-FLOAT001
                delivered2, dropped_std2 = offered2, 0.0
            else:
                delivered2, dropped_std2 = q_ring.offer(offered2, dt)
            if san is not None:
                san.account_link(
                    "rx-ring",
                    offered=offered2,
                    delivered=delivered2,
                    dropped=dropped_std2,
                    queue_before=occ2_before,
                    queue_after=q_ring.occupancy,
                    flow_control=flow_control,
                )
            if flow_control:
                # 802.3x pause frames: the overflow is held upstream,
                # nothing is dropped at the ring.
                drops2 = zeros
            else:
                fill2 = max(0.0, 1.0 - rcv_drain / line2_den)
                trains_after = (
                    trains if drops1 is zeros
                    else np.maximum(0.0, trains - drops1)
                )
                if fill2 > 0.0 and not all_smooth:
                    headroom2 = max(0.0, buf2 - q_ring.occupancy)
                    overflow2 = max(
                        0.0, float(asum(trains_after)) * fill2 - headroom2
                    )
                else:
                    overflow2 = 0.0
                ov2 = overflow2 * tick_per_rtt
                if ov2 > 0.0:
                    drops2 = concentrate_drops(burst_rng, trains_after, ov2)
                    if dropped_std2 > 0.0:
                        drops2 += concentrate_drops(burst_rng, after1, dropped_std2)
                elif dropped_std2 > 0.0:
                    drops2 = concentrate_drops(burst_rng, after1, dropped_std2)
                else:
                    drops2 = zeros

            if drops1 is zeros and drops2 is zeros:
                drops = zeros
                delivered = sent
            else:
                drops = drops1 + drops2
                delivered = np.maximum(0.0, sent - drops)
            if san is not None:
                san.check_non_negative("alloc", alloc)
                san.check_non_negative("sent", sent)
                san.check_non_negative("drops", drops)
                san.check_non_negative("delivered", delivered)
                san.check_non_negative(
                    "queue occupancy", (q_switch.occupancy, q_ring.occupancy)
                )
                san.check_positive("rtt", rtt)
                san.check_positive("cwnd", cwnd)

            if drops_cum is not None:
                drops_cum += drops
            if emit_flow:
                # cwnd here is the window that bounded THIS tick's
                # allocation (the cc update below may change it).
                for i in range(n):
                    args = {
                        "flow": i,
                        "sent": float(sent[i]),
                        "delivered": float(delivered[i]),
                        "dropped": float(drops[i]),
                        "alloc": float(alloc[i]),
                        "cwnd": float(cwnd[i]),
                        "rtt": rtt,
                    }
                    if want_flow:
                        bus.emit("flow", "flow.tick", **args)
                    if ledger_bus is not None:
                        ledger_bus.emit("flow", "flow.tick", **args)

            # --- congestion feedback ------------------------------------
            if drops is zeros:
                # No drop volume: segments lost is exactly 0 and no flow
                # can clear the (strictly positive) loss-react threshold.
                retr_segments = 0.0
                loss_idx = empty_idx
            else:
                retr_segments = float(asum(drops) / mss)
                loss_idx = np.nonzero(
                    drops > LOSS_REACT_FRACTION * np.maximum(sent, 1.0)
                )[0]
            # Congestion-window validation (RFC 7661): loss-based
            # algorithms only grow while the window is what binds.  The
            # mask reads this tick's pre-update windows, as the scalar
            # loop did.
            # Same left-fold ``(nv & a) & b`` as the expression form;
            # `&` on bool arrays is logical_and, and the `c * x`
            # commutations round identically.
            np.multiply(alloc, rtt, out=mask_f1)
            np.maximum(mask_f1, react10, out=mask_f1)
            np.multiply(mask_f1, 1.5, out=mask_f1)
            np.greater(cwnd, mask_f1, out=mask_b1)
            np.logical_and(kern.needs_validation, mask_b1, out=mask_b1)
            np.multiply(alloc, 1.2, out=mask_f1)
            np.greater(window_rate, mask_f1, out=mask_b2)
            al_mask = np.logical_and(mask_b1, mask_b2, out=mask_b1)
            reacted = kern.cc_feedback(
                now, dt, rtt, delivered, loss_idx, al_mask, max_window
            )
            loss_events = len(reacted)
            if want_cc:
                for i, before, after in reacted:
                    bus.emit(
                        "cc",
                        "cc.loss",
                        flow=i,
                        cwnd_before=before,
                        cwnd_after=after,
                        dropped=float(drops[i]),
                        rtt=rtt,
                    )
            prev_alloc = alloc

            # --- CPU accounting ------------------------------------------
            drate = np.divide(delivered, dt, out=drate_buf)
            tx_app_pb, tx_irq_pb, zc_frac, rx_app_pb, rx_irq_pb = kern.cpu_costs(
                alloc, drate, rtt, footprint
            )
            np.multiply(alloc, tx_app_pb, out=acc_buf)
            tx_app = float(asum(acc_buf)) / budget_tx
            np.multiply(alloc, tx_irq_pb, out=acc_buf)
            tx_irq = float(asum(acc_buf)) / budget_tx
            np.multiply(drate, rx_app_pb, out=acc_buf)
            rx_app = float(asum(acc_buf)) / budget_rx
            np.multiply(drate, rx_irq_pb, out=acc_buf)
            rx_irq = float(asum(acc_buf)) / budget_rx
            zc_sum = float(asum(zc_frac))
            if want_zc:
                for i in zc_flows:
                    # Edge-triggered: one event when the flow starts
                    # falling back to copying (optmem exhausted),
                    # one when it recovers.
                    bus.emit_edge(
                        ("zc", i),
                        "zerocopy",
                        "zc.fallback",
                        bool(zc_frac[i] < 0.999),
                        flow=i,
                        zc_fraction=round(float(zc_frac[i]), 4),
                    )

            if want_probe and step % probe_stride == 0:
                bus.emit(
                    "probe",
                    "probe.mpstat",
                    **mpstat_probe(
                        snd_app_pct=100.0 * tx_app / n,
                        snd_irq_pct=100.0 * tx_irq / n,
                        rcv_app_pct=100.0 * rx_app / n,
                        rcv_irq_pct=100.0 * rx_irq / n,
                    ),
                )
                bus.emit(
                    "probe",
                    "probe.nic",
                    **nic_probe(q_switch, q_ring, flow_control=flow_control),
                )
                for i in range(n):
                    zc_model = send_models[i].zc_model
                    bus.emit(
                        "probe",
                        "probe.socket",
                        **socket_probe(
                            i,
                            cwnd=float(cwnd[i]),
                            pacing_rate=float(pace[i]),
                            rtt=rtt,
                            send_rate=float(alloc[i]),
                            delivered_rate=float(delivered[i]) / dt,
                            retrans_cum=float(drops_cum[i]) / mss,
                            zc_fraction=(
                                None
                                if zc_model is None
                                else zc_model.zc_fraction(float(alloc[i]), rtt)
                            ),
                        ),
                    )

            metrics.record_tick(
                dt,
                delivered,
                retr_segments,
                loss_events,
                (tx_app / n, tx_irq / n, rx_app / n, rx_irq / n),
                zc_sum / n,
                # Drop-free ticks deliver exactly what was sent, whose
                # sum was already taken for the switch offer.
                delivered_sum=(
                    offered1 if delivered is sent else float(asum(delivered))
                ),
            )

        result = metrics.finalize()
        if bus is not None:
            bus.emit(
                "run",
                "run.end",
                rep=rep,
                flows=n,
                gbps=round(result.total_gbps, 6),
                retransmit_segments=round(result.retransmit_segments, 3),
                loss_events=result.loss_events,
            )
        return result
