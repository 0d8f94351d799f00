"""CPU cost model: cycles per byte/batch/packet for each side of a flow.

This module turns a configured :class:`~repro.host.Host` plus per-flow
options (zerocopy, GSO/GRO sizes, skip-rx-copy) into the quantities the
flow simulator needs every tick:

* ``sender_cycles_per_byte(rate, rtt, footprint)`` — app-core and
  IRQ-core cost of *sending* one goodput byte at the given operating
  point (rate and RTT matter because the MSG_ZEROCOPY fallback fraction
  and the cache footprint depend on them);
* ``receiver_cycles_per_byte(rate)`` — likewise for receiving;
* ``sender_cpu_rate_limit(...)`` / ``receiver_cpu_rate_limit(...)`` —
  the throughput at which the binding core saturates, solved by fixed
  point iteration (the cost depends on the rate, which depends on the
  cost).

Cost structure (see :mod:`repro.host.cpu` for the calibrated constants):

Sender app core, copying send::

    copy * cache_factor + stack + tx_batch / gso_size

Sender app core, MSG_ZEROCOPY send (fraction ``z`` true zerocopy,
``1-z`` fallback; see :mod:`repro.tcp.zerocopy`)::

    z   * (pin + stack + completion/block)
  + (1-z) * (copy * cache_factor + stack + zc_attempt_overhead)
  + tx_batch / gso_size

Receiver IRQ core::

    rx_pkt / mss [* hw_gro_residual] + rx_batch / gro_size + rx_stack

Receiver app core::

    copy * cache_factor + rx_read_batch / block     (or ~0 w/ MSG_TRUNC)

All terms are multiplied by the kernel-version efficiency scale, the
NUMA placement penalty, the VM factors, and (DMA-related terms) the
IOMMU factor.

The *cache factor* models the L3 working-set effect: a WAN-sized socket
buffer no longer fits in L3, so every copy goes to DRAM.  We use the
smooth ramp ``1 + penalty * f^2 / (f^2 + L3^2)`` where ``f`` is the
buffer footprint — ≈1.0 on the LAN (MB-scale windows) and ≈1+penalty on
long paths (hundred-MB windows).  AMD's per-CCX 32 MB slices plus its
higher miss cost make ``penalty`` larger than Intel's, which is the
mechanism behind the paper's Fig. 8 (AMD WAN sender CPU much higher
than Intel's in Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.machine import Host
from repro.host.numa import CorePlacement
from repro.tcp.segment import SegmentGeometry
from repro.host.kernel import KernelVersion
from repro.tcp.zerocopy import (
    DEFAULT_SEND_BLOCK,
    NOTIF_BYTES,
    NOTIF_BYTES_COALESCED,
    ZerocopyModel,
)

__all__ = [
    "CpuCostModel",
    "SendCosts",
    "RecvCosts",
    "SenderCostBatch",
    "ReceiverCostBatch",
]

#: Extra per-byte cost of a zerocopy send that *fell back* to copying
#: (failed pin attempt + notification setup/teardown), cycles/byte,
#: on top of the ordinary copy cost.  Calibrated so that zerocopy with
#: the default 20 KB optmem_max is visibly *worse* in CPU terms than
#: plain copying (paper Fig. 9, first group).
ZC_ATTEMPT_OVERHEAD = 0.25

#: Per-send completion-notification processing (MSG_ERRQUEUE reads),
#: cycles per sendmsg; amortized over the send block size.
ZC_COMPLETION_CYC = 15000.0

#: Fraction of TX batch cost landing on the IRQ cores (TX-completion
#: interrupts, qdisc dequeue softirq) rather than the app core.
TX_IRQ_SHARE = 0.35

#: Per-byte receive-stack residual on the IRQ core.
RX_STACK_CYC_PER_BYTE = 0.01

#: With hardware GRO + header/data split, payload lands in page-aligned
#: buffers, making the copy-to-user slightly cheaper as well.
HW_GRO_COPY_FACTOR = 0.9

#: Memory "touches" per goodput byte for aggregate-bandwidth ceilings:
#: copying path reads+writes the payload in the copy plus the DMA read.
MEM_TOUCHES_COPY = 3.0
MEM_TOUCHES_ZEROCOPY = 1.7

#: Receive-side aggregate headroom over the send side (no qdisc, DDIO).
RX_AGG_MARGIN = 1.06


@dataclass(frozen=True)
class SendCosts:
    """Per-byte cycle costs on the sending host at one operating point."""

    app_cyc_per_byte: float
    irq_cyc_per_byte: float
    zc_fraction: float


@dataclass(frozen=True)
class RecvCosts:
    """Per-byte cycle costs on the receiving host."""

    app_cyc_per_byte: float
    irq_cyc_per_byte: float


class CpuCostModel:
    """Cost model bound to one host and one flow configuration."""

    def __init__(
        self,
        host: Host,
        geometry: SegmentGeometry,
        placement: CorePlacement,
        zerocopy: bool = False,
        skip_rx_copy: bool = False,
        send_block: float = DEFAULT_SEND_BLOCK,
    ) -> None:
        self.host = host
        self.geometry = geometry
        self.placement = placement
        self.zerocopy = zerocopy
        self.skip_rx_copy = skip_rx_copy
        self.send_block = send_block
        coalesced = host.kernel.version >= KernelVersion(6, 6)
        self.zc_model = (
            ZerocopyModel(
                optmem_max=host.sysctls.optmem_max,
                send_block_bytes=send_block,
                notif_bytes=NOTIF_BYTES_COALESCED if coalesced else NOTIF_BYTES,
            )
            if zerocopy
            else None
        )

        cpu = host.cpu
        topo = host.numa
        kernel_scale = host.stack_cost_scale
        self._app_scale = kernel_scale * placement.app_penalty(topo) * host.vm.byte_cost_factor
        self._irq_scale = (
            kernel_scale
            * placement.irq_penalty(topo)
            * host.tuning.iommu_byte_cost_factor
        )
        self._batch_scale = kernel_scale * host.vm.batch_cost_factor
        self._core_budget = host.core_cycles_per_sec()
        self._cpu = cpu

    # ------------------------------------------------------------------
    # cache model
    # ------------------------------------------------------------------

    def cache_factor(self, footprint_bytes: float) -> float:
        """Per-byte copy-cost multiplier for a given working set."""
        l3 = self._cpu.l3_effective_bytes
        f2 = footprint_bytes * footprint_bytes
        return 1.0 + self._cpu.cache_penalty * f2 / (f2 + l3 * l3)

    # ------------------------------------------------------------------
    # sender
    # ------------------------------------------------------------------

    def sender_costs(self, rate: float, rtt: float, footprint_bytes: float) -> SendCosts:
        cpu = self._cpu
        cache = self.cache_factor(footprint_bytes)
        gso = max(1.0, self.geometry.gso_size)
        batch_pb = cpu.tx_batch_cyc / gso
        walk_pb = cpu.skb_walk_cyc / gso

        if self.zc_model is None:
            app_pb = cpu.copy_cyc_per_byte * cache + cpu.stack_cyc_per_byte
            zc_frac = 0.0
        else:
            zc_frac = self.zc_model.zc_fraction(rate, rtt)
            zc_pb = (
                cpu.pin_cyc_per_byte
                + cpu.stack_cyc_per_byte
                + ZC_COMPLETION_CYC / self.send_block
            )
            fb_pb = (
                cpu.copy_cyc_per_byte * cache
                + cpu.stack_cyc_per_byte
                + ZC_ATTEMPT_OVERHEAD
            )
            app_pb = zc_frac * zc_pb + (1.0 - zc_frac) * fb_pb

        app = (app_pb + walk_pb) * self._app_scale + (
            1.0 - TX_IRQ_SHARE
        ) * batch_pb * self._batch_scale
        irq = TX_IRQ_SHARE * batch_pb * self._batch_scale * self._irq_scale
        return SendCosts(app_cyc_per_byte=app, irq_cyc_per_byte=irq, zc_fraction=zc_frac)

    def sender_cpu_rate_limit(
        self, rtt: float, footprint_bytes: float, core_share: float = 1.0
    ) -> float:
        """Throughput at which the sending app core saturates, bytes/s.

        ``core_share`` is the fraction of an app core this flow owns
        (flows sharing a core split its budget).

        Solved in closed form: the cycles spent per second at rate ``r``
        are piecewise linear and monotone in ``r`` —

        * copying path: ``r * pb``;
        * zerocopy path with notification capacity ``C = optmem-covered
          bytes / rtt``: ``min(r, C) * zc_pb + max(0, r - C) * fb_pb``
          (bytes within the notification budget take the cheap path,
          the excess falls back to copying) —

        so the saturation rate is exact, with no fixed-point iteration
        (a naive ``r -> budget / pb(r)`` iteration oscillates because
        the zerocopy fraction makes ``pb`` decrease steeply in ``r``).
        """
        budget = self._core_budget * core_share
        cpu = self._cpu
        cache = self.cache_factor(footprint_bytes)
        gso = max(1.0, self.geometry.gso_size)
        batch_pb = (
            (1.0 - TX_IRQ_SHARE) * (cpu.tx_batch_cyc / gso) * self._batch_scale
            + (cpu.skb_walk_cyc / gso) * self._app_scale
        )

        if self.zc_model is None:
            pb = (
                cpu.copy_cyc_per_byte * cache + cpu.stack_cyc_per_byte
            ) * self._app_scale + batch_pb
            return budget / max(pb, 1e-9)

        zc_pb = (
            cpu.pin_cyc_per_byte
            + cpu.stack_cyc_per_byte
            + ZC_COMPLETION_CYC / self.send_block
        ) * self._app_scale + batch_pb
        fb_pb = (
            cpu.copy_cyc_per_byte * cache
            + cpu.stack_cyc_per_byte
            + ZC_ATTEMPT_OVERHEAD
        ) * self._app_scale + batch_pb

        if rtt <= 0:
            return budget / max(zc_pb, 1e-9)
        capacity = self.zc_model.max_inflight_bytes / rtt  # bytes/s on zc path
        r_all_zc = budget / max(zc_pb, 1e-9)
        if r_all_zc <= capacity:
            return r_all_zc
        # Spend capacity*zc_pb cycles on the zerocopy bytes, the rest of
        # the budget on fallback bytes.
        return capacity + (budget - capacity * zc_pb) / max(fb_pb, 1e-9)

    # ------------------------------------------------------------------
    # receiver
    # ------------------------------------------------------------------

    def receiver_costs(self, rate: float, rtt: float,
                       footprint_bytes: float = 0.0) -> RecvCosts:
        cpu = self._cpu
        geom = self.geometry
        gro = geom.effective_gro_batch(rate, rtt)
        pkt_cost = cpu.rx_pkt_cyc
        copy_factor = 1.0
        if self.host.hw_gro_active():
            pkt_cost *= self.host.nic.hw_gro_residual
            copy_factor = HW_GRO_COPY_FACTOR

        irq_pb = (
            pkt_cost / geom.mss
            + cpu.rx_batch_cyc / gro
            + RX_STACK_CYC_PER_BYTE
        ) * self._irq_scale

        if self.skip_rx_copy:
            # MSG_TRUNC: data is discarded in the kernel; the app core
            # only pays the syscall cost per block.
            app_pb = (cpu.tx_batch_cyc / self.send_block) * self._batch_scale
        else:
            cache = self.cache_factor(footprint_bytes)
            app_pb = (
                (
                    cpu.copy_cyc_per_byte * cache * copy_factor
                    + cpu.stack_cyc_per_byte
                    + 0.5 * cpu.skb_walk_cyc / gro
                )
                * self._app_scale
                + (cpu.tx_batch_cyc / self.send_block) * self._batch_scale
            )
        return RecvCosts(app_cyc_per_byte=app_pb, irq_cyc_per_byte=irq_pb)

    def receiver_cpu_rate_limit(
        self, rtt: float, footprint_bytes: float = 0.0,
        core_share: float = 1.0, irq_share: float = 1.0,
    ) -> float:
        """Throughput at which the receiver saturates (app or IRQ core)."""
        budget_app = self._core_budget * core_share
        budget_irq = self._core_budget * irq_share
        rate = budget_app / 0.6
        for _ in range(8):
            costs = self.receiver_costs(rate, rtt, footprint_bytes)
            app_limit = budget_app / max(costs.app_cyc_per_byte, 1e-9)
            irq_limit = budget_irq / max(costs.irq_cyc_per_byte, 1e-9)
            new_rate = min(app_limit, irq_limit)
            if abs(new_rate - rate) < 1e-3 * rate:
                rate = new_rate
                break
            rate = 0.5 * (rate + new_rate)
        return rate

    # ------------------------------------------------------------------
    # aggregate host ceiling
    # ------------------------------------------------------------------

    def aggregate_tx_ceiling(self) -> float:
        """Whole-host sender throughput ceiling, bytes/s.

        Multi-stream aggregate throughput saturates well below
        ``cores x per-core limit`` because all flows share the memory
        subsystem, the qdisc, and the NIC DMA engines.  We model the
        ceiling as an effective memory bandwidth divided by the number
        of memory touches per byte (3 for the copying path, 1.7 for
        zerocopy), scaled by kernel efficiency and the IOMMU factor.
        """
        touches = MEM_TOUCHES_ZEROCOPY if self.zerocopy else MEM_TOUCHES_COPY
        base = self._cpu.stack_mem_bw_bytes_per_sec / touches
        return base / (self.host.stack_cost_scale * self.host.tuning.iommu_byte_cost_factor)

    def aggregate_rx_ceiling(self) -> float:
        """Whole-host receiver throughput ceiling, bytes/s.

        Slightly above the sender-side ceiling (RX_AGG_MARGIN): the
        receive path has no qdisc and its DMA writes allocate directly
        into LLC (DDIO), so a host can absorb a little more than it can
        emit — which is why the paper's LAN unpaced runs show only a
        handful of retransmits.
        """
        touches = 1.5 if self.skip_rx_copy else MEM_TOUCHES_COPY
        base = RX_AGG_MARGIN * self._cpu.stack_mem_bw_bytes_per_sec / touches
        return base / (self.host.stack_cost_scale * self.host.tuning.iommu_byte_cost_factor)

    # ------------------------------------------------------------------

    @property
    def core_budget_cyc_per_sec(self) -> float:
        return self._core_budget


# ----------------------------------------------------------------------
# batched variants for the vectorized tick kernel
# ----------------------------------------------------------------------
#
# One simulation's flows all share a host, segment geometry, and core
# placement; the only per-flow variation on the sender is the zerocopy
# flag and on the receiver the skip-rx-copy flag.  The batches below
# evaluate the scalar formulas above as elementwise float64 array
# expressions with the same operation order, so each lane is bitwise
# identical to the corresponding scalar call — the property the kernel
# parity tests (tests/test_kernel_parity.py) pin down.


def _uniform(values) -> float:
    vals = set(values)
    if len(vals) != 1:
        raise ValueError(f"batch requires a uniform value, got {sorted(vals)}")
    return vals.pop()


class SenderCostBatch:
    """Array evaluation of sender costs/limits across one host's flows."""

    def __init__(self, models: list[CpuCostModel]) -> None:
        m0 = models[0]
        self._cpu = m0._cpu
        # Uniformity is a property of the distinct model objects; the
        # sharded path repeats one object per flow class up to 100k times.
        distinct = list(dict.fromkeys(models))
        self._app_scale = _uniform(m._app_scale for m in distinct)
        self._irq_scale = _uniform(m._irq_scale for m in distinct)
        self._batch_scale = _uniform(m._batch_scale for m in distinct)
        self._core_budget = _uniform(m._core_budget for m in distinct)
        self._gso = max(1.0, _uniform(m.geometry.gso_size for m in distinct))
        self._send_block = _uniform(m.send_block for m in distinct)
        self.zc_mask = np.array([m.zc_model is not None for m in models])
        self._any_zc = bool(self.zc_mask.any())
        self._max_inflight = 0.0
        if self._any_zc:
            self._max_inflight = _uniform(
                m.zc_model.max_inflight_bytes for m in distinct if m.zc_model
            )
        # Scalar coefficients hoisted out of the per-tick calls — pure
        # functions of model constants, so the values (and therefore
        # every downstream bit) are unchanged.
        cpu = self._cpu
        self._l3_sq = cpu.l3_effective_bytes * cpu.l3_effective_bytes
        self._batch_pb = cpu.tx_batch_cyc / self._gso
        self._walk_pb = cpu.skb_walk_cyc / self._gso
        self._zc_pb = (
            cpu.pin_cyc_per_byte
            + cpu.stack_cyc_per_byte
            + ZC_COMPLETION_CYC / self._send_block
        )
        self._limit_batch_pb = (
            (1.0 - TX_IRQ_SHARE) * (cpu.tx_batch_cyc / self._gso) * self._batch_scale
            + (cpu.skb_walk_cyc / self._gso) * self._app_scale
        )
        self._limit_zc_pb = self._zc_pb * self._app_scale + self._limit_batch_pb
        self._irq_const = (
            TX_IRQ_SHARE * self._batch_pb * self._batch_scale * self._irq_scale
        )
        self._tx_tail = (1.0 - TX_IRQ_SHARE) * self._batch_pb * self._batch_scale
        # Scratch buffers sized once; every returned array is either a
        # fresh allocation or one of these, valid until the next call
        # on this batch (the tick kernel consumes results within the
        # tick, so reuse never aliases live data).
        n = len(models)
        self._all_zc = self._any_zc and bool(self.zc_mask.all())
        self._irq_arr = np.full(n, self._irq_const)
        self._no_zc_frac = np.zeros(n)
        self._prep_buf = np.empty(n)
        self._prep_tmp = np.empty(n)
        self._lim_buf = np.empty(n)
        self._zc_buf = np.empty(n)
        self._zcf_buf = np.empty(n)
        self._zcf_pos = np.empty(n, dtype=bool)
        self._costs_fb = np.empty(n)
        self._costs_t1 = np.empty(n)
        self._costs_t2 = np.empty(n)

    def _zc_fraction(self, rates: np.ndarray, rtt: float) -> np.ndarray:
        inflight = np.multiply(rates, rtt, out=self._zcf_buf)
        # min(inflight) > 0 iff every element is (no NaNs here).  All
        # in-flight means the two np.where masks select their first
        # operand everywhere — min(1, max_inflight/inflight) — so the
        # masked evaluation collapses to the expression itself.
        if inflight.size and float(np.minimum.reduce(inflight)) > 0.0:
            np.divide(self._max_inflight, inflight, out=inflight)
            np.minimum(inflight, 1.0, out=inflight)
            return inflight
        pos = np.greater(inflight, 0, out=self._zcf_pos)
        safe = np.where(pos, inflight, 1.0)
        return np.where(pos, np.minimum(1.0, self._max_inflight / safe), 1.0)

    def prepare(self, footprints: np.ndarray) -> np.ndarray:
        """Footprint-dependent copy+stack cyc/B, shared sub-expression
        of :meth:`costs` and :meth:`rate_limits` (both evaluate the
        identical formula, so computing it once per tick is bitwise
        neutral).  Commutative reorderings (``x * c`` for ``c * x``)
        round identically in IEEE-754, and in-place ``out=`` targets
        only change where results land, never their bits."""
        cpu = self._cpu
        b, t = self._prep_buf, self._prep_tmp
        np.multiply(footprints, footprints, out=b)  # f2
        np.add(b, self._l3_sq, out=t)  # f2 + l3^2
        np.multiply(b, cpu.cache_penalty, out=b)
        np.divide(b, t, out=b)
        np.add(b, 1.0, out=b)  # cache factor
        np.multiply(b, cpu.copy_cyc_per_byte, out=b)
        np.add(b, cpu.stack_cyc_per_byte, out=b)
        return b

    def costs(
        self,
        rates: np.ndarray,
        rtt: float,
        footprints: np.ndarray,
        copy_stack: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-flow (app cyc/B, irq cyc/B, zc fraction) arrays."""
        copy_pb = self.prepare(footprints) if copy_stack is None else copy_stack
        if self._any_zc:
            frac = self._zc_fraction(rates, rtt)
            fb_pb = np.add(copy_pb, ZC_ATTEMPT_OVERHEAD, out=self._costs_fb)
            t = np.multiply(frac, self._zc_pb, out=self._costs_t1)
            u = np.subtract(1.0, frac, out=self._costs_t2)
            np.multiply(u, fb_pb, out=u)
            zc_pb = np.add(t, u, out=t)
            if self._all_zc:
                # np.where with an all-true mask returns its first
                # operand's values verbatim.
                app_pb = zc_pb
                zc_frac = frac
            else:
                app_pb = np.where(self.zc_mask, zc_pb, copy_pb)
                zc_frac = np.where(self.zc_mask, frac, 0.0)
        else:
            app_pb = copy_pb
            zc_frac = self._no_zc_frac

        # In-place is safe: ``app_pb`` is one of this batch's scratch
        # buffers (or the per-tick prepare() result, fully rewritten
        # before its next read) — see the class docstring contract.
        app = np.add(app_pb, self._walk_pb, out=app_pb)
        np.multiply(app, self._app_scale, out=app)
        np.add(app, self._tx_tail, out=app)
        return app, self._irq_arr, zc_frac

    def rate_limits(
        self,
        rtt: float,
        footprints: np.ndarray | None = None,
        core_share: float = 1.0,
        copy_stack: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-flow sender CPU saturation rates (bytes/s)."""
        budget = self._core_budget * core_share
        # Shared sub-expression of the copy and fallback paths (the
        # scalar method evaluates it twice; once is bit-identical).
        copy_stack = (
            self.prepare(footprints) if copy_stack is None else copy_stack
        )
        batch_pb = self._limit_batch_pb
        if not self._all_zc:
            copy_limit = np.multiply(copy_stack, self._app_scale, out=self._lim_buf)
            np.add(copy_limit, batch_pb, out=copy_limit)
            np.maximum(copy_limit, 1e-9, out=copy_limit)
            np.divide(budget, copy_limit, out=copy_limit)
            if not self._any_zc:
                return copy_limit

        zc_pb = self._limit_zc_pb
        zc_limit = self._zc_buf
        if rtt <= 0:
            zc_limit.fill(budget / max(zc_pb, 1e-9))
        else:
            capacity = self._max_inflight / rtt
            r_all_zc = budget / max(zc_pb, 1e-9)
            if r_all_zc <= capacity:
                zc_limit.fill(r_all_zc)
            else:
                np.add(copy_stack, ZC_ATTEMPT_OVERHEAD, out=zc_limit)
                np.multiply(zc_limit, self._app_scale, out=zc_limit)
                np.add(zc_limit, batch_pb, out=zc_limit)  # fb_pb
                np.maximum(zc_limit, 1e-9, out=zc_limit)
                np.divide(budget - capacity * zc_pb, zc_limit, out=zc_limit)
                np.add(zc_limit, capacity, out=zc_limit)
        if self._all_zc:
            return zc_limit
        return np.where(self.zc_mask, zc_limit, copy_limit)


class ReceiverCostBatch:
    """Array evaluation of receiver costs across one host's flows."""

    def __init__(self, models: list[CpuCostModel]) -> None:
        m0 = models[0]
        cpu = m0._cpu
        self._cpu = cpu
        distinct = list(dict.fromkeys(models))  # see SenderCostBatch
        self._app_scale = _uniform(m._app_scale for m in distinct)
        self._irq_scale = _uniform(m._irq_scale for m in distinct)
        self._batch_scale = _uniform(m._batch_scale for m in distinct)
        self._send_block = _uniform(m.send_block for m in distinct)
        self._mss = _uniform(m.geometry.mss for m in distinct)
        self._gro_size = _uniform(m.geometry.gro_size for m in distinct)
        self.skip_mask = np.array([m.skip_rx_copy for m in models])
        pkt_cost = cpu.rx_pkt_cyc
        copy_factor = 1.0
        if m0.host.hw_gro_active():
            pkt_cost *= m0.host.nic.hw_gro_residual
            copy_factor = HW_GRO_COPY_FACTOR
        self._pkt_cost = pkt_cost
        self._copy_factor = copy_factor
        # Scalar coefficients hoisted out of the per-tick call — pure
        # functions of model constants, identical values.
        self._mss_f = float(self._mss)
        self._pkt_pb = pkt_cost / self._mss
        self._half_walk = 0.5 * cpu.skb_walk_cyc
        # cache_factor(0.0) is exactly 1.0 (0 / (0 + l3^2) == 0).
        self._copy_stack = (
            cpu.copy_cyc_per_byte * 1.0 * copy_factor + cpu.stack_cyc_per_byte
        )
        self._skip_pb = (cpu.tx_batch_cyc / self._send_block) * self._batch_scale
        n = len(models)
        self._no_skip = not bool(self.skip_mask.any())
        self._all_skip = bool(self.skip_mask.all())
        # Scratch buffers; results are valid until the next call.
        self._gro_buf = np.empty(n)
        self._irq_buf = np.empty(n)
        self._app_buf = np.empty(n)

    def costs(
        self, rates: np.ndarray, rtt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-flow (app cyc/B, irq cyc/B) arrays at footprint 0.

        Elementwise IEEE-754 adds and multiplies are commutative, so
        the ``x + c`` / ``c * x`` reorderings below reproduce the
        scalar formulas bit-for-bit; ``out=`` reuse does not change
        any rounding.
        """
        cpu = self._cpu
        # SegmentGeometry.effective_gro_batch, elementwise.
        gro = np.multiply(rates, 100e-6, out=self._gro_buf)
        np.maximum(gro, self._mss_f, out=gro)
        np.minimum(gro, self._gro_size, out=gro)

        irq_pb = np.divide(cpu.rx_batch_cyc, gro, out=self._irq_buf)
        np.add(irq_pb, self._pkt_pb, out=irq_pb)
        np.add(irq_pb, RX_STACK_CYC_PER_BYTE, out=irq_pb)
        np.multiply(irq_pb, self._irq_scale, out=irq_pb)

        if self._all_skip:
            app_pb = self._app_buf
            app_pb.fill(self._skip_pb)
            return app_pb, irq_pb
        copy_pb = np.divide(self._half_walk, gro, out=self._app_buf)
        np.add(copy_pb, self._copy_stack, out=copy_pb)
        np.multiply(copy_pb, self._app_scale, out=copy_pb)
        np.add(copy_pb, self._skip_pb, out=copy_pb)
        if self._no_skip:
            return copy_pb, irq_pb
        return np.where(self.skip_mask, self._skip_pb, copy_pb), irq_pb
