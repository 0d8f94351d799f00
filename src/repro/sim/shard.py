"""Sharded massive-flow simulation: 10k–1M flows across worker processes.

The paper drives at most 16 parallel iperf3 streams, but the R&E links
it studies carry thousands of concurrent flows.  This module scales
:class:`~repro.sim.kernels.VectorKernel` to that regime by
splitting the per-flow arrays across worker processes.  Workers own
contiguous *blocks* of flows; every cross-flow quantity the tick needs
(max-min water-filling state, queue offers, CPU budget sums) travels as
O(blocks) partial aggregates through a ``multiprocessing.shared_memory``
exchange matrix, synchronized by a barrier — two waits per phase, a
handful of phases per tick.

Shard-count invariance
----------------------
``n_shards ∈ {1, 2, 4}`` produce byte-identical
``ExperimentResult.digest()`` and ``events_digest``.  Two mechanisms
carry the guarantee:

* **Blockwise reductions in fixed global order.**  Flows are padded to
  a multiple of ``BLOCK_FLOWS`` and every partial aggregate is a
  per-block sum (``np.add.reduce`` over exactly ``BLOCK_FLOWS`` lanes).
  The block grid depends only on the flow count, never on the shard
  count; the coordinator folds block partials in global block order.
  A sum computed this way cannot see where the shard boundaries fall.

* **A fixed shard→RNG-stream mapping.**  Every random draw belongs to
  a *block*, not a shard: block ``b`` draws bursts from the stream
  ``shard:burst:b{b}`` and drop placement from ``shard:drop:b{b}``,
  claimed up front on the run's :class:`~repro.core.rng.RngFactory`
  (which raises :class:`~repro.core.rng.RngStreamCollisionError` on
  any label collision).  Run-global draws (host jitter, background
  samples, rx-ceiling noise) stay on the coordinator.  Whichever
  worker owns block ``b`` consumes exactly the same stream in exactly
  the same order.

Drop placement
--------------
Drop volumes land on one or two victims per block, drawn by
inverse-CDF sampling over the block's lanes.  The worker places every
block at once (:func:`_place_block_drops`): one draw per block carrying
a volume (two uniforms per volume, train first, then standing), a
row-wise cumsum over the ``[blocks, BLOCK_FLOWS]`` view, victims found
by comparison count, and one ``np.add.at`` scatter.
:func:`_concentrate_block` is the per-block form it replaced; it stays
as the reference the tests check the segmented form against bit for
bit, generator states included.

Shared physics
--------------
The engine runs the same physics as
:class:`~repro.sim.flowsim.FlowSimulator`, written once: the run set-up
and the path stage (background, RTT, receiver ceiling, switch and ring
queues) are :mod:`repro.sim.stages`, and every lane computation is a
:class:`~repro.sim.kernels.VectorKernel` stage or hook.  What differs
is the block layout above: per-block burst and drop streams in place
of one fused draw, phased water-filling in place of
:func:`~repro.sim.bottleneck.maxmin_allocate`, block drop placement in
place of :func:`~repro.sim.lossmodel.concentrate_drops`, and block
partials in place of global reductions.  So its numbers are compared
against *its own* goldens (any shard count); with the run noise pinned
and no drops, its results equal the unsharded simulator's exactly
(``tests/test_shard_parity.py``).

Fault handling
--------------
A watchdog thread aborts the barrier when any worker process dies, the
coordinator surfaces :class:`ShardCrashError`, the run unlinks its
shared-memory segments and retries from the seed (fresh RNG streams,
hence byte-identical results).  The ``REPRO_SHARD_CRASH_ONCE``
environment hook (a sentinel path, or ``always``) kills shard 0 on its
second tick for the fault-injection tests.

The shard count is 1 unless a caller pins it: ``repro run --shards N``
(``RunnerConfig.shards``) scopes each task with :func:`forced_shards`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.sim.flowsim import FlowSpec, SimProfile
from repro.sim.kernels import VectorKernel
from repro.sim.lossmodel import BURST_SIGMA, TRAIN_FRACTION, BurstModel
from repro.sim.metrics import MetricsAccumulator, RunResult
from repro.sim.sanitizer import SimSanitizer
from repro.sim.sanitizer import enabled as sanitizer_enabled
from repro.sim.stages import PathStage, RunSetup, emit_run_end, emit_run_start
from repro.tcp.cc.batch import CcBatch
from repro.trace.bus import active as trace_active

__all__ = [
    "CRASH_ONCE_ENV",
    "BLOCK_FLOWS",
    "FlowPopulation",
    "ShardPlan",
    "ShardCrashError",
    "ShardedFlowSimulator",
    "shard_count",
    "force_shards",
    "forced_shards",
]

CRASH_ONCE_ENV = "REPRO_SHARD_CRASH_ONCE"

#: Flows per reduction block.  Partial sums are always over exactly this
#: many lanes (the population is padded with inert flows), so reduction
#: bits depend only on the block grid — never on the shard count.
BLOCK_FLOWS = 32

#: Crashed runs restart from the seed this many times before giving up.
MAX_ATTEMPTS = 3

#: Exchange-matrix columns, one row per block.  Workers publish partial
#: aggregates; the coordinator writes per-block drop volumes back.
(
    _FOOT,      # sum of working-set footprints (valid lanes)
    _CAPS,      # sum of per-flow rate caps
    _WSUM,      # sum of max-min weights over still-active lanes
    _TRAIN,     # sum of packet-train volumes
    _RCV,       # sum of receiver CPU rate limits (valid lanes)
    _CAPPED,    # water-filling: sum of caps newly limited this round
    _NLIM,      # water-filling: count newly limited this round
    _SENT,      # sum of bytes emitted this tick
    _AFTER1,    # sum of bytes surviving the switch-buffer drops
    _TAFTER,    # sum of train volumes surviving the switch-buffer drops
    _DROPS,     # sum of dropped bytes
    _LOSSN,     # count of reacted loss events (first row per shard)
    _TXAPP,     # sum of alloc * tx app cyc/byte
    _TXIRQ,     # sum of alloc * tx irq cyc/byte
    _RXAPP,     # sum of drate * rx app cyc/byte
    _RXIRQ,     # sum of drate * rx irq cyc/byte
    _ZC,        # sum of zerocopy fractions
    _DSUM,      # sum of delivered bytes
    _D1T,       # coordinator->worker: block train-drop volume, stage 1
    _D1S,       # coordinator->worker: block standing-drop volume, stage 1
    _D2T,       # coordinator->worker: block train-drop volume, stage 2
    _D2S,       # coordinator->worker: block standing-drop volume, stage 2
) = range(22)
_N_COLS = 22

#: Bytes per element of the float64 shared segments.
_F64 = np.dtype(np.float64).itemsize

#: Phase commands, written to the control channel before each barrier.
_CMD_CAPS, _CMD_WF, _CMD_SEND, _CMD_DROPS1, _CMD_FEEDBACK, _CMD_END = range(
    1, 7
)

#: Shared empty array for the coordinator's metrics accumulator — the
#: per-flow byte totals live in the shared ``accum`` segment instead.
_EMPTY = np.zeros(0)

#: Programmatic override: None means one shard.
_forced: int | None = None


class ShardCrashError(RuntimeError):
    """A shard worker process died mid-run (barrier broken)."""


def shard_count() -> int:
    """The shard count the next sharded run will use."""
    return 1 if _forced is None else _forced


def force_shards(count: int | None) -> None:
    """Pin the shard count (None restores the default of 1)."""
    global _forced
    if count is not None and count < 1:
        raise ConfigurationError("shard count must be >= 1")
    _forced = count


@contextmanager
def forced_shards(count: int) -> Iterator[None]:
    """Scope a shard-count selection (used by the runner and tests)."""
    prev = _forced
    force_shards(count)
    try:
        yield
    finally:
        force_shards(prev)


def _burst_label(block: int) -> str:
    """RNG stream label for block ``block``'s burst draws."""
    return f"shard:burst:b{block}"


def _drop_label(block: int) -> str:
    """RNG stream label for block ``block``'s drop placement."""
    return f"shard:drop:b{block}"


def _maybe_crash(shard_id: int, tick: int) -> None:
    """Fault-injection hook: kill shard 0 on its second tick.

    ``REPRO_SHARD_CRASH_ONCE=always`` crashes on every attempt;
    any other value is a sentinel path created on the first crash so
    the retried attempt survives.
    """
    hook = os.environ.get(CRASH_ONCE_ENV)
    if not hook or shard_id != 0 or tick != 2:
        return
    if hook == "always":
        os._exit(17)
    try:
        fd = os.open(hook, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(17)


def _blocksums(values: np.ndarray) -> np.ndarray:
    """Per-block partial sums in fixed lane order.

    Each output element reduces exactly ``BLOCK_FLOWS`` lanes, so the
    bits are identical no matter how many blocks one worker holds.
    """
    return np.add.reduce(values.reshape(-1, BLOCK_FLOWS), axis=1)


def _concentrate_block(
    gen: np.random.Generator,
    basis: np.ndarray,
    lo: int,
    volume: float,
    out: np.ndarray,
) -> None:
    """Block-local drop concentration, accumulated into ``out``.

    Same physics as :func:`~repro.sim.lossmodel.concentrate_drops` —
    the volume lands on a couple of victims chosen ∝ ``basis`` — but
    via inverse-CDF sampling instead of ``Generator.choice`` with
    ``replace=False``, whose rejection loop dominates massive-flow
    tick cost.  Exactly two uniforms are consumed per call regardless
    of the basis, so the per-block draw count (the shard-invariance
    anchor) never depends on lane data; coinciding victims merge their
    shares, concentrating further, never less.

    The engine runs :func:`_place_block_drops`, which places every
    block at once; this per-block form is the reference the tests hold
    it to.
    """
    cdf = np.cumsum(basis[lo : lo + BLOCK_FLOWS])
    total = float(cdf[-1])
    x = gen.random(2)
    if total <= 0.0:
        return
    v0 = int(cdf.searchsorted(x[0] * total, side="right"))
    v1 = int(cdf.searchsorted(x[1] * total, side="right"))
    if v0 == v1:
        out[lo + v0] += volume  # repro: noqa-SHARD001 — documented fold
    else:
        out[lo + v0] += volume * 0.7  # repro: noqa-SHARD001
        out[lo + v1] += volume * 0.3  # repro: noqa-SHARD001


def _place_block_drops(
    out: np.ndarray,
    drop_rngs: Sequence[np.random.Generator],
    u_rows: np.ndarray,
    train_vols: np.ndarray,
    std_vols: np.ndarray,
    trains_basis: np.ndarray,
    std_basis: np.ndarray,
) -> None:
    """Segmented drop placement for a run of blocks, written to ``out``.

    Bit for bit the loop that calls :func:`_concentrate_block` per
    block, train volume first, then standing volume.  A block's one
    ``random(out=...)`` call into its ``u_rows`` row makes the draws
    the two reference calls make, in the same order.  Per lane the
    scatter is the reference fold: at most one train share, then at
    most one standing share, added to +0.0.
    """
    out.fill(0.0)
    has_train = train_vols > 0.0
    has_std = std_vols > 0.0
    carries = np.flatnonzero(has_train | has_std)
    if carries.size == 0:
        return
    # Row columns [0, 2) hold the train pair, [2, 4) the standing pair;
    # a block with one volume fills only that pair.
    first = np.where(has_train[carries], 0, 2).tolist()
    last = np.where(has_std[carries], 4, 2).tolist()
    for j, a, b in zip(carries.tolist(), first, last):
        drop_rngs[j].random(out=u_rows[j, a:b])
    lanes_t, shares_t = _segmented_victims(
        trains_basis, has_train, train_vols, u_rows[:, 0:2]
    )
    lanes_s, shares_s = _segmented_victims(
        std_basis, has_std, std_vols, u_rows[:, 2:4]
    )
    np.add.at(
        out,
        np.concatenate((lanes_t, lanes_s)),
        np.concatenate((shares_t, shares_s)),
    )


def _segmented_victims(
    basis: np.ndarray,
    has_volume: np.ndarray,
    volumes: np.ndarray,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Victim lanes and shares for every block carrying a volume.

    The segmented form of :func:`_concentrate_block`: one row-wise
    cumsum over the ``[blocks, BLOCK_FLOWS]`` view gives each block's
    CDF (the same sequential accumulation as the 1-D cumsum), and a
    victim is the count of CDF entries ``<= x * total`` — what
    ``searchsorted(side="right")`` returns on a nondecreasing row.
    Offsetting rows into one global CDF would round, so the rows stay
    separate.  Every row is searched (gathering the carrying rows costs
    more than searching the rest); rows without a volume, and
    zero-total rows, which consumed their draws, place nothing.
    Returns ``(lanes, shares)``: every first victim, then every
    distinct second victim, in block order.
    """
    cdf = np.cumsum(basis.reshape(-1, BLOCK_FLOWS), axis=1)
    total = cdf[:, -1]
    # Rows without a volume drew nothing this time: search them at 0.
    x = np.where(has_volume[:, None], uniforms, 0.0) * total[:, None]
    v0 = np.count_nonzero(cdf <= x[:, 0:1], axis=1)
    v1 = np.count_nonzero(cdf <= x[:, 1:2], axis=1)
    rows = np.flatnonzero(has_volume & ~(total <= 0.0))
    v0, v1, volume = v0[rows], v1[rows], volumes[rows]
    lo = rows * BLOCK_FLOWS
    split = v0 != v1
    lanes = np.concatenate((lo + v0, (lo + v1)[split]))
    shares = np.concatenate(
        (np.where(split, volume * 0.7, volume), volume[split] * 0.3)
    )
    return lanes, shares


# ----------------------------------------------------------------------
# Population and partitioning


@dataclass(frozen=True)
class FlowPopulation:
    """Compact grouped description of a (possibly huge) flow set.

    Massive campaigns repeat a handful of flow configurations tens of
    thousands of times; storing ``(spec, count)`` groups keeps setup
    O(groups) where a per-flow list would be O(flows).
    """

    groups: tuple[tuple[FlowSpec, int], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("need at least one flow group")
        for _, count in self.groups:
            if count < 1:
                raise ConfigurationError("flow group counts must be >= 1")

    @classmethod
    def uniform(cls, spec: FlowSpec, count: int) -> "FlowPopulation":
        """``count`` identical flows."""
        return cls(groups=((spec, int(count)),))

    @classmethod
    def of(cls, flows: Sequence[FlowSpec]) -> "FlowPopulation":
        """Group an explicit flow list (adjacent equal specs merge)."""
        groups: list[tuple[FlowSpec, int]] = []
        for spec in flows:
            if groups and groups[-1][0] == spec:
                prev, count = groups[-1]
                groups[-1] = (prev, count + 1)
            else:
                groups.append((spec, 1))
        return cls(groups=tuple(groups))

    @property
    def n(self) -> int:
        return sum(count for _, count in self.groups)


@dataclass(frozen=True)
class ShardPlan:
    """Block grid and shard ownership for a flow population.

    Blocks are global: the grid depends only on the flow count.  Shards
    own contiguous whole-block ranges, so every reduction block lives
    entirely inside one shard and pads exist only in the final block.
    """

    n: int             # real flows
    n_blocks: int      # ceil(n / BLOCK_FLOWS)
    n_pad: int         # n_blocks * BLOCK_FLOWS
    bounds: tuple[int, ...]  # block boundaries, len == shards + 1

    @classmethod
    def build(cls, n: int, requested: int) -> "ShardPlan":
        if n < 1:
            raise ConfigurationError("need at least one flow")
        if requested < 1:
            raise ConfigurationError("shard count must be >= 1")
        n_blocks = -(-n // BLOCK_FLOWS)
        shards = max(1, min(requested, n_blocks))
        bounds = tuple(
            (s * n_blocks) // shards for s in range(shards + 1)
        )
        return cls(
            n=n,
            n_blocks=n_blocks,
            n_pad=n_blocks * BLOCK_FLOWS,
            bounds=bounds,
        )

    @property
    def shards(self) -> int:
        return len(self.bounds) - 1

    def block_range(self, shard: int) -> tuple[int, int]:
        return self.bounds[shard], self.bounds[shard + 1]

    def flow_range(self, shard: int) -> tuple[int, int]:
        b0, b1 = self.block_range(shard)
        return b0 * BLOCK_FLOWS, b1 * BLOCK_FLOWS


# ----------------------------------------------------------------------
# Worker


class _ShardWorker:
    """One shard's flow lanes plus its side of the exchange protocol.

    Built in the coordinator process *before* forking, so process-mode
    children inherit every array (scratch pages go copy-on-write; the
    exchange/control/accumulator views map shared segments).  The lane
    physics is the kernel's (:meth:`VectorKernel.caps`,
    :meth:`~VectorKernel.loss_index`,
    :meth:`~VectorKernel.validation_mask` and the four hooks) — the
    same stages :class:`~repro.sim.flowsim.FlowSimulator` calls.  What
    the worker adds is the block layout: per-block burst draws and drop
    placement, and block partials in place of global reductions, which
    is what makes the results shard-count-invariant (see the module
    docstring).
    """

    def __init__(
        self,
        shard_id: int,
        plan: ShardPlan,
        kern: VectorKernel,
        setup: RunSetup,
        *,
        persistent_w: np.ndarray,
        burst_rngs: list[np.random.Generator],
        drop_rngs: list[np.random.Generator],
        exchange: np.ndarray,
        accum: np.ndarray,
    ) -> None:
        """The run-wide arrays and per-block generators are sliced to
        this shard's lanes and blocks here."""
        self.shard_id = shard_id
        self.b0, self.b1 = plan.block_range(shard_id)
        f0, f1 = plan.flow_range(shard_id)
        m = f1 - f0
        self.kern = kern
        self.setup = setup
        self.dt = setup.dt
        self.pace_eff = setup.pace_eff[f0:f1]
        self.slacks = setup.slacks[f0:f1]
        self.persistent_w = persistent_w[f0:f1]
        self.burst_rngs = burst_rngs[self.b0 : self.b1]
        self.drop_rngs = drop_rngs[self.b0 : self.b1]
        self.ex = exchange
        self.rows = slice(self.b0, self.b1)
        self.accum = accum[f0:f1]
        # Valid (non-pad) lanes of THIS shard; only the globally last
        # block has pads, at its end.
        n_valid = max(0, min(m, plan.n - f0))
        self.valid_b = np.arange(m) < n_valid
        self.valid_f = self.valid_b.astype(float)
        self.pad_slice = slice(n_valid, m)

        # Persistent per-run state.
        self.tick = 0
        self.now = 0.0
        self.prev_alloc = np.zeros(m)
        self.alloc = np.zeros(m)
        self.active = np.zeros(m, dtype=bool)
        self.had_drops1 = False
        self.empty_idx = np.zeros(0, dtype=np.intp)
        self.zero_trains = np.zeros(m)

        # Per-tick scratch, rewritten before first read each tick.  The
        # caps, footprints and window rates are the kernel's.
        self.fair = np.empty(m)
        self.sent = np.empty(m)
        self.after1 = np.empty(m)
        self.tafter = np.empty(m)
        self.drops1 = np.zeros(m)
        self.drops2 = np.zeros(m)
        self.dropsum = np.empty(m)
        self.del_buf = np.empty(m)
        self.drate_buf = np.empty(m)
        self.mscratch = np.empty(m)
        self.mask_b1 = np.empty(m, dtype=bool)
        self.mask_b2 = np.empty(m, dtype=bool)
        self.t_buf = np.empty(m)
        # One row per block: its 2*BLOCK_FLOWS burst normals (weights
        # jitter, then train scale) and its drop uniforms (train pair,
        # then standing pair).  t_rows views t_buf block by block.
        n_blocks = self.b1 - self.b0
        self.z_rows = np.empty((n_blocks, 2 * BLOCK_FLOWS))
        self.t_rows = self.t_buf.reshape(n_blocks, BLOCK_FLOWS)
        self.u_rows = np.empty((n_blocks, 4))
        self.w_buf = np.empty(m)
        self.trains_buf = np.empty(m)
        # The arrays this tick's draws landed in (fast path aliases the
        # persistent/zero arrays; see round_caps).
        self.w: np.ndarray = self.persistent_w
        self.trains: np.ndarray = self.zero_trains

    # -- phases --------------------------------------------------------

    def round_caps(self, rtt: float) -> None:
        self.tick += 1
        self.now = self.tick * self.dt
        self.rtt = rtt
        ex, rows = self.ex, self.rows
        kern, setup = self.kern, self.setup
        caps, footprint, _, rcv_limit = kern.caps(
            rtt, self.prev_alloc, self.pace_eff, setup.fp_floor, setup.fp_cap
        )
        # Pad lanes must allocate exactly 0 in the SEND fast path, which
        # takes max(caps, 0); zero their caps after the min fold.
        caps[self.pad_slice] = 0.0
        self.caps = caps

        if setup.all_smooth:
            # All slacks 0: the jitter multiplies out to the persistent
            # weights exactly and trains to +0.0; skip the draws.  The
            # condition is global, so every shard count skips together.
            self.w = self.persistent_w
            self.trains = self.zero_trains
        else:
            # One fixed-size draw per *block* from that block's own
            # stream, straight into the block's row: the first
            # BLOCK_FLOWS columns jitter the max-min weights, the rest
            # scale the packet trains — the same split as the driver's
            # fused tick_draw, per block.
            z_rows = self.z_rows
            for gen, row in zip(self.burst_rngs, z_rows):
                gen.standard_normal(out=row)
            t = self.t_buf
            np.multiply(
                z_rows[:, :BLOCK_FLOWS],
                BurstModel.TICK_WEIGHT_SIGMA,
                out=self.t_rows,
            )
            np.exp(t, out=t)
            np.subtract(t, 1.0, out=t)
            np.multiply(self.slacks, t, out=t)
            np.add(t, 1.0, out=t)
            self.w = np.multiply(self.persistent_w, t, out=self.w_buf)
            np.multiply(z_rows[:, BLOCK_FLOWS:], BURST_SIGMA, out=self.t_rows)
            np.add(t, -(BURST_SIGMA**2) / 2.0, out=t)
            np.exp(t, out=t)
            np.multiply(self.slacks, t, out=t)
            np.multiply(t, TRAIN_FRACTION, out=t)
            self.trains = np.multiply(t, kern.cwnd, out=self.trains_buf)

        # Partials.  FOOT and RCV mask the pad lanes (their values are
        # kernel-owned and nonzero); multiplying the valid lanes by 1.0
        # is bit-exact and pads contribute +0.0.  The rest are naturally
        # zero on pads (w, trains, caps).
        np.multiply(footprint, self.valid_f, out=self.mscratch)
        ex[rows, _FOOT] = _blocksums(self.mscratch)
        ex[rows, _CAPS] = _blocksums(caps)
        np.multiply(rcv_limit, self.valid_f, out=self.mscratch)
        ex[rows, _RCV] = _blocksums(self.mscratch)
        ex[rows, _WSUM] = _blocksums(self.w)
        ex[rows, _TRAIN] = _blocksums(self.trains)

        self.alloc.fill(0.0)
        np.copyto(self.active, self.valid_b)
        self.had_drops1 = False

    def round_wf(self, share: float) -> None:
        """One water-filling round at the coordinator's fair share."""
        ex, rows = self.ex, self.rows
        np.multiply(self.w, share, out=self.fair)
        limited = np.less_equal(self.caps, self.fair, out=self.mask_b1)
        np.logical_and(limited, self.active, out=limited)
        np.copyto(self.alloc, self.caps, where=limited)
        np.multiply(self.caps, limited, out=self.mscratch)
        ex[rows, _CAPPED] = _blocksums(self.mscratch)
        ex[rows, _NLIM] = _blocksums(limited)
        np.logical_not(limited, out=self.mask_b2)
        np.logical_and(self.active, self.mask_b2, out=self.active)
        np.multiply(self.w, self.active, out=self.mscratch)
        ex[rows, _WSUM] = _blocksums(self.mscratch)

    def round_send(self, mode: float) -> None:
        ex, rows = self.ex, self.rows
        resolved = int(mode)
        if resolved == 0:
            # Uncongested fast path: every flow at its (clipped) cap.
            np.maximum(self.caps, 0.0, out=self.alloc)
        else:
            if resolved == 1:
                # Converged water-fill: still-active flows take the
                # final fair share; limited flows already hold their
                # caps from the WF rounds.
                np.copyto(self.alloc, self.fair, where=self.active)
            np.minimum(self.alloc, self.caps, out=self.alloc)
            np.maximum(self.alloc, 0.0, out=self.alloc)
        np.multiply(self.alloc, self.dt, out=self.sent)
        ex[rows, _SENT] = _blocksums(self.sent)

    def _place_drops(
        self,
        out: np.ndarray,
        trains_basis: np.ndarray,
        std_basis: np.ndarray,
        train_col: int,
        std_col: int,
    ) -> None:
        """Concentrate per-block drop volumes onto a few lanes each.

        The volumes (written by the coordinator into ``train_col`` /
        ``std_col``) are global quantities apportioned per block, so
        the per-block draw counts — hence the drop streams — are
        shard-count-invariant.
        """
        vols = self.ex[self.rows]
        _place_block_drops(
            out,
            self.drop_rngs,
            self.u_rows,
            vols[:, train_col],
            vols[:, std_col],
            trains_basis,
            std_basis,
        )

    def round_drops1(self) -> None:
        ex, rows = self.ex, self.rows
        self._place_drops(self.drops1, self.trains, self.sent, _D1T, _D1S)
        np.subtract(self.sent, self.drops1, out=self.after1)
        np.maximum(self.after1, 0.0, out=self.after1)
        np.subtract(self.trains, self.drops1, out=self.tafter)
        np.maximum(self.tafter, 0.0, out=self.tafter)
        ex[rows, _AFTER1] = _blocksums(self.after1)
        ex[rows, _TAFTER] = _blocksums(self.tafter)
        self.had_drops1 = True

    def round_feedback(self, any_d2: bool) -> None:
        ex, rows = self.ex, self.rows
        kern, rtt = self.kern, self.rtt
        drops: np.ndarray | None
        if any_d2:
            trains_basis = self.tafter if self.had_drops1 else self.trains
            std_basis = self.after1 if self.had_drops1 else self.sent
            self._place_drops(self.drops2, trains_basis, std_basis, _D2T, _D2S)
            if self.had_drops1:
                drops = np.add(self.drops1, self.drops2, out=self.dropsum)
            else:
                drops = self.drops2
        elif self.had_drops1:
            drops = self.drops1
        else:
            drops = None

        if drops is None:
            delivered = self.sent
            ex[rows, _DROPS] = 0.0
            loss_idx = self.empty_idx
        else:
            np.subtract(self.sent, drops, out=self.del_buf)
            np.maximum(self.del_buf, 0.0, out=self.del_buf)
            delivered = self.del_buf
            ex[rows, _DROPS] = _blocksums(drops)
            loss_idx = kern.loss_index(drops, self.sent)

        al_mask = kern.validation_mask(self.alloc, rtt, self.setup.react10)
        reacted = kern.cc_feedback(
            self.now, self.dt, rtt, delivered, loss_idx, al_mask,
            self.setup.max_window,
        )
        ex[rows, _LOSSN] = 0.0
        ex[self.b0, _LOSSN] = float(len(reacted))

        drate = np.divide(delivered, self.dt, out=self.drate_buf)
        tx_app_pb, tx_irq_pb, zc_frac, rx_app_pb, rx_irq_pb = kern.cpu_costs(
            self.alloc, drate, rtt, kern.footprint
        )
        np.multiply(self.alloc, tx_app_pb, out=self.mscratch)
        ex[rows, _TXAPP] = _blocksums(self.mscratch)
        np.multiply(self.alloc, tx_irq_pb, out=self.mscratch)
        ex[rows, _TXIRQ] = _blocksums(self.mscratch)
        np.multiply(drate, rx_app_pb, out=self.mscratch)
        ex[rows, _RXAPP] = _blocksums(self.mscratch)
        np.multiply(drate, rx_irq_pb, out=self.mscratch)
        ex[rows, _RXIRQ] = _blocksums(self.mscratch)
        ex[rows, _ZC] = _blocksums(zc_frac)
        ex[rows, _DSUM] = _blocksums(delivered)

        if self.now > self.setup.omit:
            np.add(self.accum, delivered, out=self.accum)
        self.prev_alloc, self.alloc = self.alloc, self.prev_alloc

    def dispatch(self, cmd: int, f0: float) -> None:
        if cmd == _CMD_CAPS:
            self.round_caps(f0)
        elif cmd == _CMD_WF:
            self.round_wf(f0)
        elif cmd == _CMD_SEND:
            self.round_send(f0)
        elif cmd == _CMD_DROPS1:
            self.round_drops1()
        elif cmd == _CMD_FEEDBACK:
            self.round_feedback(int(f0) == 1)
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown shard command {cmd}")


def _serve(
    worker: _ShardWorker,
    ctl: np.ndarray,
    barrier,
    shard_id: int,
) -> None:
    """Child-process loop: wait, dispatch, wait, repeat until END.

    Any failure — including a broken barrier after a sibling died —
    exits the process immediately; the coordinator's watchdog turns
    that into :class:`ShardCrashError`.
    """
    try:
        while True:
            barrier.wait()
            cmd = int(ctl[0])
            if cmd == _CMD_END:
                return
            f0 = float(ctl[1])
            worker.dispatch(cmd, f0)
            if cmd == _CMD_CAPS:
                _maybe_crash(shard_id, worker.tick)
            barrier.wait()
    except BaseException:
        os._exit(1)


# ----------------------------------------------------------------------
# Transports


class _InProcTransport:
    """Loop the workers in the coordinator process (1 shard, tests)."""

    name = "inproc"

    def __init__(self, workers: list[_ShardWorker], ctl: np.ndarray) -> None:
        self.workers = workers
        self.ctl = ctl

    def phase(self, cmd: int, f0: float) -> None:
        for worker in self.workers:
            worker.dispatch(cmd, f0)

    def end(self) -> None:
        pass

    def close(self) -> None:
        pass


class _SharedMemTransport:
    """Fork one process per shard; synchronize phases via a barrier.

    The workers' exchange/control/accumulator arrays view shared-memory
    segments, so coordinator writes are visible after the start barrier
    and worker writes after the done barrier.  A watchdog thread aborts
    the barrier if any worker dies, converting a hang into
    :class:`ShardCrashError`.  Never ``barrier.wait(timeout)`` on a
    barrier that will be used again — a timed-out wait *breaks* it for
    everyone (the END release is the one exception: it is the
    barrier's last use, and the watchdog is already stopped there).
    """

    name = "process"

    def __init__(self, workers: list[_ShardWorker], ctl: np.ndarray) -> None:
        ctx = mp.get_context("fork")
        self.ctl = ctl
        self.barrier = ctx.Barrier(len(workers) + 1)
        self.procs = [
            ctx.Process(
                target=_serve,
                args=(worker, ctl, self.barrier, worker.shard_id),
                daemon=True,
            )
            for worker in workers
        ]
        for proc in self.procs:
            proc.start()
        self._stop = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()

    def _watch(self) -> None:
        while not self._stop.wait(0.05):
            if any(not proc.is_alive() for proc in self.procs):
                self.barrier.abort()
                return

    def _await(self) -> None:
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise ShardCrashError("a shard worker process died mid-tick")

    def phase(self, cmd: int, f0: float) -> None:
        self.ctl[0] = float(cmd)
        self.ctl[1] = float(f0)
        self._await()  # release workers into the phase
        self._await()  # wait for every worker's partials

    def end(self) -> None:
        # Every worker write is already published by the last phase's
        # done barrier; END only releases the workers to exit.  Stop
        # the watchdog *first*: workers dying is expected from here on,
        # and the watchdog aborting the release barrier behind a
        # fast-exiting worker would masquerade as a crash — a spurious
        # retry that duplicates the whole run's trace events.  The
        # timed wait covers a worker that died before reading END: the
        # timeout breaks the barrier (safe — this is its last use) and
        # surfaces as a crash below.
        self._stop.set()
        self._watchdog.join()
        self.ctl[0] = float(_CMD_END)
        self.ctl[1] = 0.0
        try:
            self.barrier.wait(timeout=10.0)
        except threading.BrokenBarrierError:
            raise ShardCrashError(
                "a shard worker process died at end of run"
            )
        for proc in self.procs:
            proc.join(timeout=10.0)

    def close(self) -> None:
        self._stop.set()
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=10.0)


# ----------------------------------------------------------------------
# Coordinator


class ShardedFlowSimulator:
    """Sharded massive-flow counterpart of :class:`FlowSimulator`.

    ``shards=None`` resolves the ambient selection (:func:`force_shards`,
    1 by default) at each :meth:`run`.  ``mode`` picks the
    transport: ``"process"`` forks one worker per shard, ``"inproc"``
    loops them in-process (bit-identical by construction — the same
    worker methods run in the same order on the same arrays), and
    ``"auto"`` forks only when more than one effective shard is
    requested and the platform allows it.
    """

    def __init__(
        self,
        sender: Host,
        receiver: Host,
        path: NetworkPath,
        flows: FlowPopulation | Sequence[FlowSpec],
        profile: SimProfile | None = None,
        rng: RngFactory | None = None,
        shards: int | None = None,
        mode: str = "auto",
    ) -> None:
        if not isinstance(flows, FlowPopulation):
            flows = FlowPopulation.of(flows)
        if mode not in ("auto", "process", "inproc"):
            raise ConfigurationError(
                f"{mode!r} is not a shard transport; "
                "choose one of ['auto', 'process', 'inproc']"
            )
        if shards is not None and shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        self.sender = sender
        self.receiver = receiver
        self.path = path
        self.population = flows
        self.profile = profile or SimProfile()
        self.rng = rng or RngFactory(seed=1)
        self.shards = shards
        self.mode = mode
        #: Shared-memory segment names of every attempt of the last
        #: :meth:`run` (the fault tests prove they were all unlinked).
        self.last_shm_names: list[str] = []
        self._validate()

    def _validate(self) -> None:
        any_zc = any(spec.zerocopy for spec, _ in self.population.groups)
        if any_zc:
            self.sender.require_zerocopy()
            self.sender.check_zerocopy_bigtcp_combo()
        # Shardable == template-batchable: each shard rebuilds its slice
        # of the congestion state from per-kind templates, so the batch
        # stepper registry is the single source of truth for which cc
        # kinds work here (scalar-state CCs like BBR cannot shard).
        from repro.tcp.cc.batch import is_batchable, template_kinds

        for spec, _ in self.population.groups:
            if not is_batchable(spec.cc):
                raise ConfigurationError(
                    f"sharded campaigns support cc in {template_kinds()}, "
                    f"not {spec.cc!r} (scalar-state CCs cannot shard)"
                )

    # -- selection -----------------------------------------------------

    def _resolve(self, plan: ShardPlan) -> bool:
        """Whether this run forks worker processes."""
        can_fork = os.name == "posix" and not mp.current_process().daemon
        if self.mode == "inproc":
            return False
        if self.mode == "process":
            if not can_fork:
                raise ConfigurationError(
                    "mode='process' needs a non-daemonic POSIX parent "
                    "(fork); use mode='auto' to fall back in-process"
                )
            return True
        return plan.shards > 1 and can_fork

    # -- run -----------------------------------------------------------

    def run(self, rep: int = 0) -> RunResult:
        """Simulate one test run; crashed attempts retry from the seed."""
        requested = self.shards if self.shards is not None else shard_count()
        plan = ShardPlan.build(self.population.n, requested)
        use_procs = self._resolve(plan)
        self.last_shm_names = []
        last_error: ShardCrashError | None = None
        for _ in range(MAX_ATTEMPTS):
            try:
                return self._run_once(rep, plan, use_procs)
            except ShardCrashError as exc:
                last_error = exc
        raise last_error

    def _run_once(
        self, rep: int, plan: ShardPlan, use_procs: bool
    ) -> RunResult:
        n = plan.n
        # A fresh factory per attempt: generator state must restart
        # from the seed so a retried run is byte-identical.
        rng = RngFactory(seed=self.rng.seed)
        san = (
            SimSanitizer(context=f"shard rep={rep}")
            if sanitizer_enabled()
            else None
        )

        jitter_rng = rng.stream("shard:hostjitter", rep)
        bg_rng = rng.stream("shard:background", rep)
        place_rng = rng.stream("shard:placement", rep)
        rx_rng = rng.stream("shard:rxnoise", rep)
        # The label helpers are constant-prefix f-strings behind one
        # definition shared with the worker side (and monkeypatchable
        # by the collision tests) — static to us, opaque to the lint.
        burst_rngs = [
            rng.stream(_burst_label(block), rep)  # repro: noqa-RNG001
            for block in range(plan.n_blocks)
        ]
        drop_rngs = [
            rng.stream(_drop_label(block), rep)  # repro: noqa-RNG001
            for block in range(plan.n_blocks)
        ]
        if san is not None:
            san.check_stream_registry(rng)

        # Lanes in group order, then the pads: inert copying flows
        # excluded from the aggregate-ceiling mins.
        setup = RunSetup(
            self.sender,
            self.receiver,
            self.path,
            self.population.groups,
            self.profile,
            place_rng=place_rng,
            jitter_rng=jitter_rng,
            burst=BurstModel(rng=place_rng),
            pads=plan.n_pad - n,
        )
        kinds: list[str] = []
        for spec, count in self.population.groups:
            kinds.extend([spec.cc] * count)
        kinds.extend(["cubic"] * (plan.n_pad - n))
        metrics = MetricsAccumulator(0, setup.duration, setup.omit)

        # Per-run persistent max-min weights, drawn per block from that
        # block's stream (the shard-invariant unit of randomness).
        slacks = setup.slacks
        persistent_w = np.empty(plan.n_pad)
        for block in range(plan.n_blocks):
            lanes = slice(block * BLOCK_FLOWS, (block + 1) * BLOCK_FLOWS)
            block_model = BurstModel(rng=burst_rngs[block])
            persistent_w[lanes] = block_model.persistent_weights(slacks[lanes])
        persistent_w[n:] = 0.0

        # Shared buffers: the block-partials exchange, the 2-float
        # control channel, and the per-flow delivered-bytes accumulator.
        segments: list[SharedMemory] = []
        if use_procs:
            seg_ex = SharedMemory(
                create=True, size=plan.n_blocks * _N_COLS * _F64
            )
            seg_ctl = SharedMemory(create=True, size=2 * _F64)
            seg_acc = SharedMemory(create=True, size=plan.n_pad * _F64)
            segments = [seg_ex, seg_ctl, seg_acc]
            self.last_shm_names.extend(seg.name for seg in segments)
            exchange = np.ndarray(
                (plan.n_blocks, _N_COLS), dtype=np.float64, buffer=seg_ex.buf
            )
            ctl = np.ndarray((2,), dtype=np.float64, buffer=seg_ctl.buf)
            accum = np.ndarray(
                (plan.n_pad,), dtype=np.float64, buffer=seg_acc.buf
            )
            exchange.fill(0.0)
            ctl.fill(0.0)
            accum.fill(0.0)
        else:
            exchange = np.zeros((plan.n_blocks, _N_COLS))
            ctl = np.zeros(2)
            accum = np.zeros(plan.n_pad)

        workers = []
        for shard in range(plan.shards):
            lanes = slice(*plan.flow_range(shard))
            batch = CcBatch.from_kinds(kinds[lanes], mss=float(setup.mss))
            workers.append(
                _ShardWorker(
                    shard,
                    plan,
                    setup.kernel(VectorKernel, batch, lanes),
                    setup,
                    persistent_w=persistent_w,
                    burst_rngs=burst_rngs,
                    drop_rngs=drop_rngs,
                    exchange=exchange,
                    accum=accum,
                )
            )

        bus = trace_active()
        want_probe = bus is not None and bus.wants("probe")
        probe_stride = 0
        if want_probe:
            probe_stride = max(1, int(round(bus.probe_interval / setup.dt)))
        path = PathStage(setup, bg_rng, bus=bus, san=san)
        emit_run_start(bus, setup, rep)

        transport = (
            _SharedMemTransport(workers, ctl)
            if use_procs
            else _InProcTransport(workers, ctl)
        )
        red = np.add.reduce  # block partials fold in global block order

        def apportion(out_col: int, basis_col: int, volume: float, total: float):
            """Split a drop volume over blocks ∝ a partials column (a
            positive train volume implies a positive train total)."""
            if volume > 0.0 and total > 0.0:
                np.multiply(
                    exchange[:, basis_col], volume / total, out=exchange[:, out_col]
                )
            else:
                exchange[:, out_col] = 0.0

        dt, mss, capacity = setup.dt, setup.mss, setup.capacity
        budget_tx, budget_rx = setup.budget_tx, setup.budget_rx
        try:
            for step in range(setup.n_ticks):
                _, rtt = path.begin(step)
                transport.phase(_CMD_CAPS, rtt)
                # The coordinator draws the rx-ceiling noise from its
                # own stream every tick (the driver's fused draw is
                # per-block here, so z cannot ride along with it).
                path.receiver_ceiling(
                    float(red(exchange[:, _FOOT])),
                    float(red(exchange[:, _RCV])),
                    float(rx_rng.standard_normal()),
                )

                # --- max-min allocation over block partials ----------
                caps_total = float(red(exchange[:, _CAPS]))
                if capacity <= 0:
                    mode = 2.0
                elif caps_total <= capacity:
                    mode = 0.0
                else:
                    mode = 2.0
                    remaining = float(capacity)
                    wsum = float(red(exchange[:, _WSUM]))
                    n_active = n
                    for _ in range(n):
                        if n_active == 0 or remaining <= 1e-12:
                            break
                        share = remaining / wsum
                        transport.phase(_CMD_WF, share)
                        n_limited = int(red(exchange[:, _NLIM]))
                        if n_limited == 0:
                            mode = 1.0
                            break
                        remaining -= float(red(exchange[:, _CAPPED]))
                        n_active -= n_limited
                        wsum = float(red(exchange[:, _WSUM]))
                transport.phase(_CMD_SEND, mode)

                # --- queues + packet-train loss ----------------------
                # The workers place each block's share on its lanes.
                offered1 = float(red(exchange[:, _SENT]))
                trains_total = (
                    float(red(exchange[:, _TRAIN])) if path.switch_trains else 0.0
                )
                ov1, dropped_std1 = path.offer_switch(offered1, trains_total)
                need_d1 = ov1 > 0.0 or dropped_std1 > 0.0
                if need_d1:
                    apportion(_D1T, _TRAIN, ov1, trains_total)
                    apportion(_D1S, _SENT, dropped_std1, offered1)
                    transport.phase(_CMD_DROPS1, 0.0)
                    offered2 = float(red(exchange[:, _AFTER1]))
                else:
                    offered2 = offered1

                t_col = _TAFTER if need_d1 else _TRAIN
                basis_total = (
                    float(red(exchange[:, t_col])) if path.ring_trains else 0.0
                )
                ov2, dropped_std2 = path.offer_ring(offered2, basis_total)
                need_d2 = ov2 > 0.0 or dropped_std2 > 0.0
                if need_d2:
                    apportion(_D2T, t_col, ov2, basis_total)
                    s_col = _AFTER1 if need_d1 else _SENT
                    apportion(_D2S, s_col, dropped_std2, offered2)
                transport.phase(_CMD_FEEDBACK, 1.0 if need_d2 else 0.0)

                # --- metrics -----------------------------------------
                any_drops = need_d1 or need_d2
                retr_segments = (
                    float(red(exchange[:, _DROPS])) / mss if any_drops else 0.0
                )
                loss_events = int(red(exchange[:, _LOSSN]))
                tx_app = float(red(exchange[:, _TXAPP])) / budget_tx
                tx_irq = float(red(exchange[:, _TXIRQ])) / budget_tx
                rx_app = float(red(exchange[:, _RXAPP])) / budget_rx
                rx_irq = float(red(exchange[:, _RXIRQ])) / budget_rx
                zc_sum = float(red(exchange[:, _ZC]))
                delivered_sum = (
                    float(red(exchange[:, _DSUM])) if any_drops else offered1
                )
                metrics.record_tick(
                    dt,
                    _EMPTY,
                    retr_segments,
                    loss_events,
                    (tx_app / n, tx_irq / n, rx_app / n, rx_irq / n),
                    zc_sum / n,
                    delivered_sum=delivered_sum,
                )
                if want_probe and step % probe_stride == 0:
                    # Globally-reduced values only, so the stream is
                    # shard-count-invariant.
                    bus.emit(
                        "probe",
                        "probe.shard",
                        flows=n,
                        offered=round(offered1, 3),
                        delivered=round(delivered_sum, 3),
                        rtt=rtt,
                        switch_occupancy=path.q_switch.occupancy,
                        ring_occupancy=path.q_ring.occupancy,
                    )
            transport.end()
            # A fresh array: safe to return after the segments unlink.
            result = metrics.finalize(per_flow_bytes=accum[:n])
        finally:
            transport.close()
            for seg in segments:
                try:
                    seg.close()
                except BufferError:
                    # numpy views of the mapping are still alive in this
                    # process; the kernel frees the pages when they go.
                    pass
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        emit_run_end(bus, setup, rep, result)
        return result
