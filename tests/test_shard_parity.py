"""Shard-count byte parity for the sharded massive-flow simulator.

The sharded engine's contract (``repro.sim.shard``) is not "close": a
campaign's numbers are *byte-identical* for every shard count and both
transports — same :class:`RunResult` numbers, same
``ExperimentResult.digest()``, and the same-seed trace streams must
match event for event.  The anchors are blockwise reductions in fixed
global order plus the fixed block→RNG-stream mapping; these tests pin
the contract on fixed configurations covering the engine's branches
(mixed congestion control with losses, all-smooth pacing, 802.3x flow
control, pad lanes, single-block clamping), on hypothesis-generated
populations, and on a registered experiment's digest through the
runner's ``--shards`` plumbing.  The segmented block drop placement is
checked bit for bit against its per-block reference,
``_concentrate_block``.  Where the two engines' randomness cannot
differ (run noise pinned, paced and drop-free), the block engine must
also reproduce :class:`FlowSimulator` exactly; and the runtime
sanitizer audits it without moving a bit.

Partitioning/population semantics and selection plumbing (env var,
programmatic override, validation errors) are covered at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, SanitizerViolation
from repro.core.rng import RngFactory
from repro.net.switch import SharedBufferQueue
from repro.sim import sanitizer, stages
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.shard import (
    BLOCK_FLOWS,
    FlowPopulation,
    ShardedFlowSimulator,
    ShardPlan,
    _concentrate_block,
    _place_block_drops,
    force_shards,
    forced_shards,
    shard_count,
)
from repro.testbeds.amlight import AmLightTestbed
from repro.testbeds.esnet import ESnetTestbed
from repro.trace.bus import ListSink, TraceBus, tracing

PROFILE = SimProfile(duration=2.0, tick=0.008, omit=0.5)


def run_traced(hosts, path, flows, seed, shards, mode="inproc", profile=PROFILE):
    """One traced sharded run at an explicit shard count/transport."""
    snd, rcv = hosts
    sink = ListSink()
    with tracing(TraceBus(sinks=[sink])):
        sim = ShardedFlowSimulator(
            snd, rcv, path, flows, profile, RngFactory(seed),
            shards=shards, mode=mode,
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


def _amlight_case(path, flows, seed):
    tb = AmLightTestbed(kernel="6.8")
    return tb.host_pair(), tb.path(path), flows, seed


#: Fixed configurations covering the sharded engine's branchy corners.
CASES = {
    # Mixed CC batch groups with losses on a lossy WAN: the general
    # case — 3 blocks, reductions crossing every exchange column.
    "mixed-cc-wan": _amlight_case(
        "wan54",
        FlowPopulation.of(
            [FlowSpec(cc="cubic")] * 40
            + [FlowSpec(cc="reno")] * 24
            + [FlowSpec(cc="cubic", zerocopy=True, skip_rx_copy=True)] * 16
            + [FlowSpec(cc="cubic").with_pacing_gbps(4.0)] * 16
        ),
        7,
    ),
    # Every flow fq-paced: the all-smooth fast path (no trains, no
    # per-tick weight draws) must stay smooth under any partition.
    "all-smooth": _amlight_case(
        "wan25",
        FlowPopulation.uniform(
            FlowSpec(zerocopy=True, skip_rx_copy=True).with_pacing_gbps(1.2),
            64,
        ),
        3,
    ),
    # Pad lanes: 100 flows leave 28 dead lanes in the last block, owned
    # by the last shard only at some partitions.
    "padded-zc": _amlight_case(
        "wan104",
        FlowPopulation.uniform(FlowSpec(zerocopy=True, skip_rx_copy=True), 100),
        11,
    ),
    # Fewer flows than one block: every shard request clamps to 1.
    "single-block": _amlight_case(
        "lan", FlowPopulation.uniform(FlowSpec(), 16), 5
    ),
    # The congestion-control zoo: every template-batchable stepper
    # (incl. a parameterized tunable-cubic kind) split across shard
    # boundaries, so per-kind groups exist in several shards at once.
    "cc-zoo": _amlight_case(
        "wan54",
        FlowPopulation.of(
            [FlowSpec(cc="highspeed")] * 18
            + [FlowSpec(cc="htcp")] * 18
            + [FlowSpec(cc="scalable")] * 18
            + [FlowSpec(cc="westwood")] * 18
            + [FlowSpec(cc="tunable-cubic:alpha=1.5,beta=0.5")] * 18
            + [FlowSpec(cc="cubic")] * 10
        ),
        23,
    ),
}


class TestFixedConfigParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_inproc_shard_counts_bit_identical(self, name):
        hosts, path, flows, seed = CASES[name]
        base = run_traced(hosts, path, flows, seed, shards=1)
        for shards in (2, 4):
            other = run_traced(hosts, path, flows, seed, shards=shards)
            assert_bit_identical(base, other)

    @pytest.mark.parametrize("name", ["mixed-cc-wan", "padded-zc"])
    def test_process_transport_bit_identical(self, name):
        hosts, path, flows, seed = CASES[name]
        base = run_traced(hosts, path, flows, seed, shards=1)
        procs = run_traced(hosts, path, flows, seed, shards=4, mode="process")
        assert_bit_identical(base, procs)

    def test_flow_control_path_parity(self):
        """802.3x pause frames (ESnet production DTNs) — the branch
        where ring overflow becomes backpressure, not loss."""
        tb = ESnetTestbed(kernel="6.8")
        hosts = tb.production_host_pair()
        pop = FlowPopulation.uniform(FlowSpec(), 40)
        base = run_traced(hosts, tb.production_path(), pop, 3, shards=1)
        other = run_traced(
            hosts, tb.production_path(), pop, 3, shards=3, mode="process"
        )
        assert_bit_identical(base, other)


spec_strategy = st.builds(
    FlowSpec,
    zerocopy=st.booleans(),
    skip_rx_copy=st.booleans(),
    cc=st.sampled_from(
        ["cubic", "reno", "highspeed", "htcp", "scalable", "westwood"]
    ),
)

population_strategy = st.lists(
    st.tuples(spec_strategy, st.integers(min_value=1, max_value=40)),
    min_size=1,
    max_size=4,
).map(lambda groups: FlowPopulation(groups=tuple(groups)))


class TestHypothesisParity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        population=population_strategy,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shards=st.integers(min_value=2, max_value=6),
        path=st.sampled_from(["wan54", "lan"]),
    )
    def test_random_populations_bit_identical(
        self, population, seed, shards, path
    ):
        tb = AmLightTestbed(kernel="6.8")
        short = SimProfile(duration=1.0, tick=0.008, omit=0.25)
        base = run_traced(
            tb.host_pair(), tb.path(path), population, seed, 1, profile=short
        )
        other = run_traced(
            tb.host_pair(), tb.path(path), population, seed, shards,
            profile=short,
        )
        assert_bit_identical(base, other)


def _reference_placement(out, rngs, train_vols, std_vols, train_basis, std_basis):
    """The per-block loop the segmented placement replaced."""
    out.fill(0.0)
    for j, gen in enumerate(rngs):
        lo = j * BLOCK_FLOWS
        if train_vols[j] > 0.0:
            _concentrate_block(gen, train_basis, lo, float(train_vols[j]), out)
        if std_vols[j] > 0.0:
            _concentrate_block(gen, std_basis, lo, float(std_vols[j]), out)


#: One block's drop-placement inputs: (train basis row kind, standing
#: basis row kind, which volumes it carries).
block_strategy = st.tuples(
    st.sampled_from(["zero", "sparse", "dense"]),
    st.sampled_from(["zero", "sparse", "dense"]),
    st.sampled_from(["none", "train", "std", "both"]),
)


def _basis_row(kind, rng):
    if kind == "zero":
        return np.zeros(BLOCK_FLOWS)
    row = rng.uniform(0.0, 1e6, BLOCK_FLOWS)
    if kind == "sparse":
        row[rng.random(BLOCK_FLOWS) < 0.7] = 0.0
    return row


class TestSegmentedPlacement:
    """The segmented drop placement against the per-block reference.

    Both sides draw from identically seeded block streams; the output
    bits and every stream's final state must match, so each block made
    the same draws in the same order.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(block_strategy, min_size=1, max_size=8),
        pads=st.integers(min_value=0, max_value=BLOCK_FLOWS - 1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_per_block_reference(self, blocks, pads, seed):
        data = np.random.default_rng(seed)
        n_blocks = len(blocks)
        train_basis = np.concatenate([_basis_row(b[0], data) for b in blocks])
        std_basis = np.concatenate([_basis_row(b[1], data) for b in blocks])
        if pads:
            # Pad lanes at the end of the last block carry no basis.
            train_basis[-pads:] = 0.0
            std_basis[-pads:] = 0.0
        volumes = data.uniform(1.0, 1e5, (n_blocks, 2))
        train_vols = np.where(
            [b[2] in ("train", "both") for b in blocks], volumes[:, 0], 0.0
        )
        std_vols = np.where(
            [b[2] in ("std", "both") for b in blocks], volumes[:, 1], 0.0
        )

        def streams():
            rng = RngFactory(seed)
            return [rng.stream(f"drop:b{j}") for j in range(n_blocks)]

        ref_rngs, vec_rngs = streams(), streams()
        ref = np.full(n_blocks * BLOCK_FLOWS, np.nan)
        vec = np.full(n_blocks * BLOCK_FLOWS, np.nan)
        _reference_placement(
            ref, ref_rngs, train_vols, std_vols, train_basis, std_basis
        )
        _place_block_drops(
            vec, vec_rngs, np.empty((n_blocks, 4)),
            train_vols, std_vols, train_basis, std_basis,
        )
        assert vec.tobytes() == ref.tobytes()
        for a, b in zip(ref_rngs, vec_rngs):
            assert a.bit_generator.state == b.bit_generator.state


class TestCrossEngineAgreement:
    """The block engine against :class:`FlowSimulator`, field by field.

    Both engines build the run from the same set-up and step the same
    kernel and path stages; what differs is randomness layout,
    allocation and drop placement.  fq pacing at 40 Gbps in total
    makes every burst draw multiply out and keeps both queues
    drop-free, and pinning the shared run-noise function removes the
    one run-level draw whose stream label differs — so any difference
    left is a fault in one driver's glue.
    """

    @pytest.mark.parametrize("zerocopy", [False, True], ids=["copy", "zc"])
    @pytest.mark.parametrize("n", [1, 3, 16, 33])
    @pytest.mark.parametrize("path", ["lan", "wan54"])
    def test_paced_drop_free_runs_agree(self, monkeypatch, path, n, zerocopy):
        monkeypatch.setattr(stages, "run_noise", lambda *args: 1.0)
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        flows = [FlowSpec(zerocopy=zerocopy).with_pacing_gbps(40.0 / n)] * n
        single = FlowSimulator(
            snd, rcv, tb.path(path), flows, PROFILE, RngFactory(9)
        ).run()
        blocks = ShardedFlowSimulator(
            snd, rcv, tb.path(path), flows, PROFILE, RngFactory(9),
            shards=1, mode="inproc",
        ).run()
        assert single.retransmit_segments == 0.0
        assert blocks.total_gbps == single.total_gbps
        assert np.array_equal(blocks.per_flow_goodput, single.per_flow_goodput)
        assert np.array_equal(blocks.interval_goodput, single.interval_goodput)
        assert blocks.sender_cpu == single.sender_cpu
        assert blocks.receiver_cpu == single.receiver_cpu
        assert blocks.retransmit_segments == single.retransmit_segments
        assert blocks.zc_fraction_mean == single.zc_fraction_mean


class TestShardSanitizer:
    """``REPRO_SANITIZE`` audits the block engine's clock and links."""

    @staticmethod
    def _run(shards, on):
        hosts, path, flows, seed = CASES["mixed-cc-wan"]
        with sanitizer.sanitized(on):
            return ShardedFlowSimulator(
                *hosts, path, flows, PROFILE, RngFactory(seed),
                shards=shards, mode="process",
            ).run()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_clean_and_bit_identical(self, shards):
        # The sanitizer routes every queue offer through the method
        # (no empty-queue elision); the numbers must not move.
        plain = self._run(shards, on=False)
        audited = self._run(shards, on=True)
        assert plain.retransmit_segments > 0
        assert_bit_identical((plain, []), (audited, []))

    def test_broken_conservation_is_caught(self, monkeypatch):
        original = SharedBufferQueue.offer

        def lying_offer(self, arrival_bytes, dt):
            delivered, dropped = original(self, arrival_bytes, dt)
            return delivered + 1e9, dropped  # mint a gigabyte

        monkeypatch.setattr(SharedBufferQueue, "offer", lying_offer)
        with pytest.raises(SanitizerViolation, match="created"):
            self._run(1, on=True)


def _small_config():
    """Small but branch-covering fidelity for the experiment checks:
    every N cell of scale-flows runs, with tick-scale windows."""
    from repro.tools.harness import HarnessConfig

    return HarnessConfig(
        repetitions=1, duration=1.5, omit=0.5, tick=0.008, seed=99
    )


class TestExperimentDigestParity:
    def test_scale_flows_digest_identical_across_shards(self):
        """End-to-end through the runner: the CI ``--shards`` contract."""
        from repro.runner import RunnerConfig, run_experiments

        digests = {}
        for shards in (1, 2, 4):
            report = run_experiments(
                ["scale-flows"],
                config=_small_config(),
                runner=RunnerConfig(jobs=1, use_cache=False, shards=shards),
            )
            (result,) = report.results
            digests[shards] = result.digest()
        assert digests[1] == digests[2] == digests[4]

    def test_cached_one_shard_result_serves_any_shard_count(self, tmp_path):
        """``TaskSpec.shards`` is absent from the cache key on purpose:
        shard-invariance means a 1-shard payload *is* the 4-shard one."""
        from repro.runner import RunnerConfig, run_experiments

        cold = run_experiments(
            ["scale-flows"],
            config=_small_config(),
            runner=RunnerConfig(jobs=1, cache_dir=tmp_path, shards=1),
        )
        assert cold.executed == 1
        warm = run_experiments(
            ["scale-flows"],
            config=_small_config(),
            runner=RunnerConfig(jobs=1, cache_dir=tmp_path, shards=4),
        )
        assert warm.all_cached
        assert warm.results[0].digest() == cold.results[0].digest()


class TestPartitioning:
    def test_plan_covers_all_blocks_contiguously(self):
        plan = ShardPlan.build(1000, 7)
        assert plan.n_pad == plan.n_blocks * BLOCK_FLOWS >= plan.n
        assert plan.bounds[0] == 0 and plan.bounds[-1] == plan.n_blocks
        spans = [
            plan.block_range(s) for s in range(plan.shards)
        ]
        assert all(b0 < b1 for b0, b1 in spans)
        assert [b0 for b0, _ in spans[1:]] == [b1 for _, b1 in spans[:-1]]

    def test_plan_clamps_shards_to_blocks(self):
        assert ShardPlan.build(16, 8).shards == 1
        assert ShardPlan.build(64, 8).shards == 2
        assert ShardPlan.build(10_000, 4).shards == 4

    def test_population_merges_adjacent_equal_specs(self):
        pop = FlowPopulation.of([FlowSpec()] * 3 + [FlowSpec(cc="reno")] * 2)
        assert pop.n == 5
        assert len(pop.groups) == 2

    def test_population_rejects_empty_and_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FlowPopulation.of([])
        with pytest.raises(ConfigurationError):
            FlowPopulation(groups=((FlowSpec(), 0),))

    def test_simulator_rejects_scalar_state_cc(self):
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        with pytest.raises(ConfigurationError):
            ShardedFlowSimulator(
                snd, rcv, tb.path("lan"),
                FlowPopulation.uniform(FlowSpec(cc="bbr3"), 8),
            )

    def test_simulator_rejects_unknown_mode_and_bad_shards(self):
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        pop = FlowPopulation.uniform(FlowSpec(), 8)
        with pytest.raises(ConfigurationError):
            ShardedFlowSimulator(snd, rcv, tb.path("lan"), pop, mode="thread")
        with pytest.raises(ConfigurationError):
            ShardedFlowSimulator(snd, rcv, tb.path("lan"), pop, shards=0)


class TestSelection:
    def test_default_is_one_shard(self):
        force_shards(None)
        assert shard_count() == 1

    def test_force_shards_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            force_shards(0)

    def test_forced_shards_scopes_and_restores(self):
        force_shards(None)
        with forced_shards(3):
            assert shard_count() == 3
            with forced_shards(5):
                assert shard_count() == 5
            assert shard_count() == 3
        assert shard_count() == 1
