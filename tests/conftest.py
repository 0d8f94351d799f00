"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.rng import RngFactory
from repro.sim.flowsim import FlowSimulator
from repro.sim.kernels import ScalarKernel, VectorKernel
from repro.tools.harness import HarnessConfig

#: ``--tick-kernel`` choices: the simulator's kernel and its oracle.
TICK_KERNELS = {"vector": VectorKernel, "scalar": ScalarKernel}


def pytest_addoption(parser):
    parser.addoption(
        "--tick-kernel",
        choices=sorted(TICK_KERNELS),
        default="vector",
        help="run every FlowSimulator in the session on this tick kernel; "
        "'scalar' re-checks the suite (goldens included) against the "
        "scalar reference",
    )


@pytest.fixture(scope="session", autouse=True)
def tick_kernel(pytestconfig):
    """Swap ``FlowSimulator.kernel_class`` for the whole session.

    Set before any simulation (and so before any pool forks), so
    forked workers run the same kernel as the test process.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            FlowSimulator,
            "kernel_class",
            TICK_KERNELS[pytestconfig.getoption("tick_kernel")],
        )
        yield


@pytest.fixture()
def rng_factory() -> RngFactory:
    return RngFactory(seed=1234)


@pytest.fixture(scope="session")
def quick_config() -> HarnessConfig:
    """Fast harness config for integration tests."""
    return HarnessConfig(repetitions=2, duration=8.0, omit=2.0, tick=0.004)


@pytest.fixture(scope="session")
def shape_config() -> HarnessConfig:
    """Slightly longer runs for the paper-shape assertions."""
    return HarnessConfig(repetitions=2, duration=12.0, omit=3.0, tick=0.004)


@pytest.fixture(scope="session")
def campaign_cache_dir(tmp_path_factory):
    """Cache directory shared by the session's golden campaign."""
    return tmp_path_factory.mktemp("repro-cache")


@pytest.fixture(scope="session")
def golden_campaign(campaign_cache_dir):
    """One parallel (jobs=4), cold-cache campaign over every experiment.

    This single run feeds three consumer groups: the golden
    characterization tests (digest parity with the committed files),
    the cache tests (it populates ``campaign_cache_dir``), and the
    paper-shape expectation tests (its rows carry every experiment's
    claims at :data:`tests._golden.GOLDEN_CONFIG` fidelity).
    """
    from repro.experiments import all_experiment_ids
    from repro.runner import RunnerConfig, run_experiments

    from tests._golden import GOLDEN_CONFIG

    return run_experiments(
        all_experiment_ids(),
        config=GOLDEN_CONFIG,
        runner=RunnerConfig(jobs=4, cache_dir=campaign_cache_dir),
    )


@pytest.fixture(scope="session")
def campaign_result(golden_campaign):
    """Accessor: ``campaign_result('fig09')`` -> ExperimentResult."""

    def get(exp_id: str):
        return golden_campaign.by_id(exp_id).result

    return get
