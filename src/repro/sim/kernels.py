"""Tick kernels: the per-flow lane work of one simulated tick.

A kernel owns the per-flow state that persists across ticks and does
every per-flow (lane) computation of the tick.  Both simulation
drivers — :class:`~repro.sim.flowsim.FlowSimulator` and each worker of
:class:`~repro.sim.shard.ShardedFlowSimulator` — call the same stages:

* the shared lane stages on :class:`TickKernel`: :meth:`~TickKernel.caps`
  (window rate, footprint chain, CPU limits, min fold),
  :meth:`~TickKernel.loss_index` (the loss-react threshold) and
  :meth:`~TickKernel.validation_mask` (RFC 7661);
* four hooks with two implementations — pacing caps, CPU rate limits,
  congestion feedback, CPU cost accounting:

  - :class:`ScalarKernel` — the reference: per-flow Python loops over
    the scalar :class:`~repro.tcp.cc.base.CongestionControl` objects and
    :class:`~repro.sim.cpumodel.CpuCostModel` methods;
  - :class:`VectorKernel` — numpy array kernels
    (:class:`~repro.tcp.cc.batch.CcBatch`,
    :class:`~repro.sim.cpumodel.SenderCostBatch`,
    :class:`~repro.sim.cpumodel.ReceiverCostBatch`) doing O(1)
    Python-level work per tick regardless of the flow count.

The stages call the hooks through ``self``, so swapping the kernel
class swaps every hook.  A kernel never reduces across flows and never
draws randomness; the scratch buffers its stages write are its own.

Parity guarantee
----------------
The two kernels are *byte-identical*: same `ExperimentResult.digest()`,
same trace ``events_digest``, on every golden config and on randomized
hypothesis configs (tests/test_kernel_parity.py).  This is provable, not
aspirational, because

* elementwise float64 ``+ - * / min max`` round identically whether
  evaluated by CPython or by a numpy ufunc, and every vector formula
  transcribes its scalar counterpart with the same association;
* everything stochastic (background samples, burst draws, drop
  placement) and every cross-flow reduction lives in the drivers,
  so RNG consumption order and summation order cannot differ;
* rare per-event work (loss reactions needing a real cube root, BBR's
  windowed-max state) runs the scalar code in both kernels.

The simulator always runs :class:`VectorKernel`
(``FlowSimulator.kernel_class``).  :class:`ScalarKernel` is the test
oracle: the parity tests swap it in for that class attribute, and
``pytest --tick-kernel scalar`` runs a whole test session on it.
"""

from __future__ import annotations

import numpy as np

from repro.core import units
from repro.sim.cpumodel import (
    CpuCostModel,
    ReceiverCostBatch,
    SenderCostBatch,
)
from repro.tcp.cc.batch import CcBatch

__all__ = ["LOSS_REACT_FRACTION", "TickKernel", "ScalarKernel", "VectorKernel"]

#: A flow's congestion control reacts when more than this fraction of
#: its tick arrival was dropped (smaller fractions model SACK-repaired
#: stragglers that do not trigger a window reduction).
LOSS_REACT_FRACTION = 5e-4


class TickKernel:
    """Per-run state, the shared lane stages and the per-tick hooks.

    The kernel owns the warm-started per-flow arrays that persist
    across ticks — the congestion windows (``cwnd``) and the damped
    receiver CPU limit fixed point (``rcv_limit``) — and the scratch
    buffers its lane stages write: ``window_rate`` and ``footprint``
    are this tick's, valid until the next :meth:`caps` call.

    ``ccs`` is the congestion state: per-flow
    :class:`~repro.tcp.cc.base.CongestionControl` objects, or for
    :class:`VectorKernel` a prebuilt :class:`~repro.tcp.cc.batch.CcBatch`
    (the sharded engine builds one from per-kind templates, skipping
    the per-flow objects).
    """

    def __init__(
        self,
        ccs,
        send_models: list[CpuCostModel],
        recv_models: list[CpuCostModel],
        *,
        run_noise: float,
        snd_app_share: float,
        rcv_app_share: float,
        rcv_irq_share: float,
        budget_rx: float,
        agg_rx_base: float,
    ) -> None:
        self.send_models = send_models
        self.recv_models = recv_models
        self.run_noise = run_noise
        self.snd_app_share = snd_app_share
        self.rcv_app_share = rcv_app_share
        self.rcv_irq_share = rcv_irq_share
        self.budget_rx = budget_rx
        self._bind(ccs)
        self.n = n = self.cwnd.size
        self.snd_limit = np.zeros(n)
        self.rcv_limit = np.full(n, agg_rx_base)
        self.window_rate = np.empty(n)
        self.footprint = np.empty(n)
        self._caps = np.empty(n)
        self._mask_f = np.empty(n)
        self._mask_b1 = np.empty(n, dtype=bool)
        self._mask_b2 = np.empty(n, dtype=bool)

    def _bind(self, ccs) -> None:
        """Attach the congestion state: ``cwnd`` and ``needs_validation``."""
        self.ccs = ccs
        self.cwnd = np.array([cc.cwnd_bytes for cc in ccs])
        self.needs_validation = np.array(
            [cc.needs_cwnd_validation for cc in ccs]
        )

    # -- lane stages (shared by both kernels and both drivers) ----------

    def caps(
        self,
        rtt: float,
        prev_alloc: np.ndarray,
        pace_eff: np.ndarray,
        fp_floor: float,
        fp_cap: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-flow rate caps: ``(caps, footprint, pace, rcv_limit)``.

        The window rate (cwnd / RTT), the pacing caps, and the sender
        and receiver CPU limits at this tick's working set, folded
        left to right as ``np.minimum.reduce([...])`` would.  The
        working set is what the sender actually touches: the in-flight
        bytes (~rate*RTT of last tick's allocation ``prev_alloc``) plus
        qdisc/socket slack — NOT the raw cwnd, which can sit far above
        what an app-limited flow uses.  (min/max are exact and
        commutative on these positive floats, and ``c * x`` rounds as
        ``x * c``.)
        """
        cwnd = self.cwnd
        window_rate = np.divide(cwnd, max(rtt, 1e-6), out=self.window_rate)
        pace = self.pacing(rtt, pace_eff)
        foot = self.footprint
        np.multiply(prev_alloc, rtt, out=foot)
        np.multiply(foot, 1.5, out=foot)
        np.maximum(foot, fp_floor, out=foot)
        np.minimum(foot, cwnd, out=foot)
        np.minimum(foot, fp_cap, out=foot)
        snd_limit, rcv_limit = self.cpu_limits(rtt, foot)
        caps = np.minimum(window_rate, pace, out=self._caps)
        np.minimum(caps, snd_limit, out=caps)
        np.minimum(caps, rcv_limit, out=caps)
        return caps, foot, pace, rcv_limit

    def loss_index(self, drops: np.ndarray, sent: np.ndarray) -> np.ndarray:
        """Flows whose drops exceed ``LOSS_REACT_FRACTION`` of their arrival."""
        threshold = np.maximum(sent, 1.0, out=self._mask_f)
        np.multiply(threshold, LOSS_REACT_FRACTION, out=threshold)
        return np.nonzero(drops > threshold)[0]

    def validation_mask(
        self, alloc: np.ndarray, rtt: float, react10: float
    ) -> np.ndarray:
        """Congestion-window validation (RFC 7661): which flows are
        app-limited this tick.

        Loss-based algorithms only grow while the window is what binds.
        The mask reads this tick's pre-update windows and window rates
        (call it before :meth:`cc_feedback`).  Same left fold
        ``(nv & a) & b`` as the expression form; ``&`` on bool arrays is
        logical_and.
        """
        f, b1, b2 = self._mask_f, self._mask_b1, self._mask_b2
        np.multiply(alloc, rtt, out=f)
        np.maximum(f, react10, out=f)
        np.multiply(f, 1.5, out=f)
        np.greater(self.cwnd, f, out=b1)
        np.logical_and(self.needs_validation, b1, out=b1)
        np.multiply(alloc, 1.2, out=f)
        np.greater(self.window_rate, f, out=b2)
        return np.logical_and(b1, b2, out=b1)

    # -- per-tick hooks ---------------------------------------------------

    def pacing(self, rtt: float, pace_eff: np.ndarray) -> np.ndarray:
        """Per-flow pacing caps: fq rate min'd with CC-internal pacing."""
        raise NotImplementedError

    def cpu_limits(
        self, rtt: float, footprint: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-flow sender/receiver CPU rate ceilings for this tick."""
        raise NotImplementedError

    def cc_feedback(
        self,
        now: float,
        dt: float,
        rtt: float,
        delivered: np.ndarray,
        loss_idx: np.ndarray,
        al_mask: np.ndarray,
        max_window: float,
    ) -> list[tuple[int, float, float]]:
        """Apply losses, window advance, and socket clamp; update
        ``self.cwnd``.  Returns (flow, before, after) per reacted loss."""
        raise NotImplementedError

    def cc_timeout(self, now: float, idx) -> list[tuple[int, float, float]]:
        """RTO collapse for the given flows; update ``self.cwnd``.
        Returns (flow, before, after) per flow.  The fluid driver never
        invokes this (its flows cannot starve into an RTO) — it exists
        so the timeout path stays under scalar<->vector parity tests."""
        raise NotImplementedError

    def cpu_costs(
        self,
        alloc: np.ndarray,
        drate: np.ndarray,
        rtt: float,
        footprint: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Per-flow (tx app, tx irq, zc fraction, rx app, rx irq) at
        this tick's operating point — cyc/byte arrays plus fractions."""
        raise NotImplementedError


class ScalarKernel(TickKernel):
    """Reference kernel: the original per-flow Python loops."""

    def pacing(self, rtt: float, pace_eff: np.ndarray) -> np.ndarray:
        pace = pace_eff.copy()
        for i, cc in enumerate(self.ccs):
            cc_rate = cc.pacing_rate(rtt)
            if cc_rate is not None:
                pace[i] = min(pace[i], cc_rate)
        return pace

    def cpu_limits(self, rtt, footprint):
        snd_limit, rcv_limit = self.snd_limit, self.rcv_limit
        for i in range(self.n):
            snd_limit[i] = self.send_models[i].sender_cpu_rate_limit(
                rtt, footprint[i], core_share=self.snd_app_share
            ) * self.run_noise
            # Receiver limit: pb falls as the GRO batch fills, then
            # is rate-independent; one damped step per tick converges.
            rm = self.recv_models[i]
            rcosts = rm.receiver_costs(max(rcv_limit[i], units.M), rtt)
            app_lim = (
                self.budget_rx * self.rcv_app_share
                / max(rcosts.app_cyc_per_byte, 1e-9)
            )
            irq_lim = (
                self.budget_rx * self.rcv_irq_share
                / max(rcosts.irq_cyc_per_byte, 1e-9)
            )
            rcv_limit[i] = 0.5 * rcv_limit[i] + 0.5 * min(app_lim, irq_lim)
        return snd_limit, rcv_limit

    def cc_feedback(self, now, dt, rtt, delivered, loss_idx, al_mask, max_window):
        reacted = []
        for i in loss_idx:
            cc = self.ccs[i]
            before = float(cc.cwnd_bytes)
            if cc.on_loss(now, rtt):
                reacted.append((int(i), before, float(cc.cwnd_bytes)))
        for i, cc in enumerate(self.ccs):
            if al_mask[i]:
                cc.on_app_limited(now, dt)
            else:
                cc.on_tick(now, dt, delivered[i], rtt)
            cc.clamp(max_window)
            self.cwnd[i] = cc.cwnd_bytes
        return reacted

    def cc_timeout(self, now, idx):
        reacted = []
        for i in idx:
            cc = self.ccs[i]
            before = float(cc.cwnd_bytes)
            cc.on_timeout(now)
            reacted.append((int(i), before, float(cc.cwnd_bytes)))
            self.cwnd[i] = cc.cwnd_bytes
        return reacted

    def cpu_costs(self, alloc, drate, rtt, footprint):
        n = self.n
        tx_app = np.zeros(n)
        tx_irq = np.zeros(n)
        zc_frac = np.zeros(n)
        rx_app = np.zeros(n)
        rx_irq = np.zeros(n)
        for i in range(n):
            costs = self.send_models[i].sender_costs(alloc[i], rtt, footprint[i])
            tx_app[i] = costs.app_cyc_per_byte
            tx_irq[i] = costs.irq_cyc_per_byte
            zc_frac[i] = costs.zc_fraction
            rcosts = self.recv_models[i].receiver_costs(drate[i], rtt)
            rx_app[i] = rcosts.app_cyc_per_byte
            rx_irq[i] = rcosts.irq_cyc_per_byte
        return tx_app, tx_irq, zc_frac, rx_app, rx_irq


class VectorKernel(TickKernel):
    """Fast kernel: batched array state, O(1) Python work per tick.

    Three bit-neutral shortcuts keep the per-tick ufunc count low:

    * ``cpu_limits`` and ``cpu_costs`` share the footprint-dependent
      copy+stack sub-expression within a tick (both hooks evaluate the
      identical formula on the identical array — :meth:`caps` calls
      ``cpu_limits`` first each tick).
    * The damped receiver-limit step contracts to an exact float fixed
      point; once an update returns its input bit-for-bit, the old
      array object is kept and an identity check skips the replay —
      which would reproduce the same bits — until ``rtt`` changes.
    * Returned arrays are scratch buffers reused across ticks; the
      driver consumes every hook result within the tick and never
      mutates one, which is what makes the reuse safe.
    """

    def _bind(self, ccs) -> None:
        """Attach the CC batch and build the per-run scratch state."""
        self.batch = ccs if isinstance(ccs, CcBatch) else CcBatch(ccs)
        # The batch owns the authoritative window array.
        self.cwnd = self.batch.cwnd
        self.needs_validation = self.batch.needs_validation
        self.sender = SenderCostBatch(self.send_models)
        self.receiver = ReceiverCostBatch(self.recv_models)
        # Precomputed scalar coefficients (same association as the
        # scalar kernel's left-to-right evaluation).
        self._budget_app = self.budget_rx * self.rcv_app_share
        self._budget_irq = self.budget_rx * self.rcv_irq_share
        self._rcv_scratch = np.empty(self.cwnd.size)
        # Within-tick share of the sender prep array, keyed by the
        # footprint array's identity.
        self._tick_foot: np.ndarray | None = None
        self._tick_prep: np.ndarray | None = None
        # Receiver-limit fixed point: (rtt, input array object).
        self._rl_rtt: float | None = None
        self._rl_obj: np.ndarray | None = None

    def pacing(self, rtt: float, pace_eff: np.ndarray) -> np.ndarray:
        if not self.batch.self_paced:
            # No flow imposes its own pacing rate (loss-based CCs return
            # None), so the caps pass through unchanged; the driver
            # never mutates the returned array.
            return pace_eff
        pace = pace_eff.copy()
        self.batch.pacing(rtt, pace)
        return pace

    def cpu_limits(self, rtt, footprint):
        prep = self.sender.prepare(footprint)
        self._tick_foot = footprint
        self._tick_prep = prep
        snd = self.sender.rate_limits(
            rtt, core_share=self.snd_app_share, copy_stack=prep
        )
        np.multiply(snd, self.run_noise, out=snd)
        self.snd_limit = snd

        rcv_in = self.rcv_limit
        if not (rtt == self._rl_rtt and rcv_in is self._rl_obj):
            np.maximum(rcv_in, units.M, out=self._rcv_scratch)
            rc_app, rc_irq = self.receiver.costs(self._rcv_scratch, rtt)
            np.maximum(rc_app, 1e-9, out=rc_app)
            np.divide(self._budget_app, rc_app, out=rc_app)
            np.maximum(rc_irq, 1e-9, out=rc_irq)
            np.divide(self._budget_irq, rc_irq, out=rc_irq)
            np.minimum(rc_app, rc_irq, out=rc_app)
            new = np.multiply(rcv_in, 0.5)
            np.multiply(rc_app, 0.5, out=rc_app)
            np.add(new, rc_app, out=new)
            self._rl_rtt = rtt
            if bool((new == rcv_in).all()):
                # Fixed point reached: keep the old object so the
                # identity check above short-circuits future ticks.
                # (Values here are strictly positive, so value equality
                # is bit equality — no ±0.0 ambiguity.)
                self._rl_obj = rcv_in
            else:
                self.rcv_limit = new
                self._rl_obj = None
        return self.snd_limit, self.rcv_limit

    def cc_feedback(self, now, dt, rtt, delivered, loss_idx, al_mask, max_window):
        return self.batch.feedback(
            now, dt, rtt, delivered, loss_idx, al_mask, max_window
        )

    def cc_timeout(self, now, idx):
        return self.batch.timeout(now, idx)

    def cpu_costs(self, alloc, drate, rtt, footprint):
        prep = self._tick_prep if footprint is self._tick_foot else None
        tx_app, tx_irq, zc_frac = self.sender.costs(
            alloc, rtt, footprint, copy_stack=prep
        )
        rx_app, rx_irq = self.receiver.costs(drate, rtt)
        return tx_app, tx_irq, zc_frac, rx_app, rx_irq
