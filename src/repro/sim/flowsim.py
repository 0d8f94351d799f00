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

from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.sim.bottleneck import maxmin_allocate
from repro.sim.kernels import VectorKernel
from repro.sim.lossmodel import BurstModel, concentrate_drops
from repro.sim.metrics import MetricsAccumulator, RunResult
from repro.sim.sanitizer import SimSanitizer
from repro.sim.sanitizer import enabled as sanitizer_enabled
from repro.sim.stages import PathStage, RunSetup, emit_run_end, emit_run_start
from repro.tcp.cc import make_cc
from repro.tcp.pacing import PacingConfig
from repro.trace.bus import TraceBus
from repro.trace.bus import active as trace_active
from repro.trace.ledger import FlowConservationLedger
from repro.trace.probes import mpstat_probe, nic_probe, socket_probe

__all__ = ["FlowSpec", "SimProfile", "FlowSimulator"]


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


def _place_drops(rng, trains, train_vol, basis, std_vol) -> np.ndarray:
    """Train overflow charged to ``trains``, then standing drops to
    ``basis`` — one queue's drop volumes placed on a few flows each.
    ``concentrate_drops`` stays a module-global lookup (swappable under
    test)."""
    if train_vol <= 0.0:
        return concentrate_drops(rng, basis, std_vol)
    drops = concentrate_drops(rng, trains, train_vol)
    if std_vol > 0.0:
        drops += concentrate_drops(rng, basis, std_vol)
    return drops


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
        n = len(self.flows)

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

        burst = BurstModel(rng=burst_rng)
        setup = RunSetup(
            self.sender,
            self.receiver,
            self.path,
            [(f, 1) for f in self.flows],
            self.profile,
            place_rng=place_rng,
            jitter_rng=jitter_rng,
            burst=burst,
        )
        dt = setup.dt
        mss = setup.mss

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
                n, mss=float(mss), context=f"flowsim rep={rep}"
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

        # The tick kernel (``kernel_class``: the vectorized fast path, or
        # the scalar reference under test) owns the warm per-flow state
        # and every lane computation; the path stage owns the queues.
        # What stays in this loop is what the sharded engine does its
        # own way: RNG draws, cross-flow reductions, the max-min
        # allocation, drop placement and trace emission.
        kern = setup.kernel(
            self.kernel_class,
            [make_cc(f.cc, mss=float(mss)) for f in self.flows],
        )
        path = PathStage(setup, bg_rng, bus=bus, san=san)
        metrics = MetricsAccumulator(n, setup.duration, setup.omit)
        send_models = setup.send_models
        pace_eff, slacks = setup.pace_eff, setup.slacks
        all_smooth = setup.all_smooth
        fp_floor, fp_cap = setup.fp_floor, setup.fp_cap
        react10, max_window, capacity = setup.react10, setup.max_window, setup.capacity
        budget_tx, budget_rx = setup.budget_tx, setup.budget_rx
        flow_control = self.path.flow_control
        prev_alloc = np.zeros(n)
        persistent_w = burst.persistent_weights(slacks)

        # Shared all-zero per-flow array for drop-free ticks (never
        # mutated) and the matching empty loss index.
        zeros = np.zeros(n)
        empty_idx = np.zeros(0, dtype=np.intp)
        zc_flows = [i for i in range(n) if send_models[i].zc_model is not None]
        # ndarray.sum() dispatches to np.add.reduce; calling the ufunc
        # directly skips a wrapper layer with identical pairwise bits.
        asum = np.add.reduce
        # Per-tick scratch buffers.  Each is fully rewritten every tick
        # before its first read, and nothing per-tick survives the tick
        # through a buffer (``prev_alloc`` keeps the freshly allocated
        # maxmin output, never scratch).  ``out=`` only changes where
        # results land, never their bits.
        sent_buf = np.empty(n)
        drate_buf = np.empty(n)
        acc_buf = np.empty(n)

        emit_run_start(bus, setup, rep)
        for step in range(setup.n_ticks):
            now, rtt = path.begin(step)
            if ledger_bus is not None:
                ledger_bus.set_time(now)

            # --- per-flow caps -------------------------------------------
            cwnd = kern.cwnd
            caps, footprint, pace, rcv_limit = kern.caps(
                rtt, prev_alloc, pace_eff, fp_floor, fp_cap
            )

            # --- shared capacity ----------------------------------------
            # One fused burst-model draw covers this tick's rx-ceiling
            # noise, max-min weight jitter, and packet-train volumes —
            # a single RNG call whose consumption order is part of the
            # shared driver, hence identical across kernels.
            noise_z, weights, trains = burst.tick_draw(
                persistent_w, slacks, cwnd, smooth=all_smooth
            )
            path.receiver_ceiling(
                float(asum(footprint)), float(asum(rcv_limit)), noise_z
            )
            # Weights come out of the lognormal jitter (positive by
            # construction), so the validation pass is skipped.  Always
            # route through the module global (the allocator has its own
            # uncongested fast path) so it stays swappable under test.
            alloc = maxmin_allocate(caps, capacity, weights, validate=False)

            # --- queues + packet-train loss ------------------------------
            sent = np.multiply(alloc, dt, out=sent_buf)  # goodput bytes emitted
            offered1 = float(asum(sent))
            ov1, dropped_std1 = path.offer_switch(
                offered1, float(asum(trains)) if path.switch_trains else 0.0
            )
            # Drop-free ticks short-circuit to the shared zero array:
            # ``concentrate_drops`` returns all-zeros without touching
            # the RNG when its drop volume is 0, and adding a zero
            # array to non-negative drops is a bitwise no-op, so the
            # skipped calls cannot change any number downstream.
            if ov1 > 0.0 or dropped_std1 > 0.0:
                drops1 = _place_drops(burst_rng, trains, ov1, sent, dropped_std1)
            else:
                drops1 = zeros

            after1 = sent if drops1 is zeros else np.maximum(0.0, sent - drops1)
            # On drop-free ticks after1 IS sent, whose sum is offered1.
            offered2 = offered1 if after1 is sent else float(asum(after1))
            trains_after = trains
            if path.ring_trains:
                if drops1 is not zeros:
                    trains_after = np.maximum(0.0, trains - drops1)
                ov2, dropped_std2 = path.offer_ring(
                    offered2, float(asum(trains_after))
                )
            else:
                ov2, dropped_std2 = path.offer_ring(offered2, 0.0)
            if ov2 > 0.0 or dropped_std2 > 0.0:
                drops2 = _place_drops(
                    burst_rng, trains_after, ov2, after1, dropped_std2
                )
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
                loss_idx = kern.loss_index(drops, sent)
            al_mask = kern.validation_mask(alloc, rtt, react10)
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
                    **nic_probe(path.q_switch, path.q_ring, flow_control=flow_control),
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
        emit_run_end(bus, setup, rep, result)
        return result
