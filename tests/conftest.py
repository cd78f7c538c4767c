"""Shared fixtures: tiny deterministic worlds and common objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import World
from repro.radio.profiles import THREE_G
from repro.runner import WorldSource
from repro.sim.rng import RngRegistry
from repro.workloads.appstore import TOP15
from repro.workloads.population import PopulationConfig, build_population

#: One world provider for the whole test session (session-scoped world
#: fixtures share it, so each tiny world is built exactly once).
_SOURCE = WorldSource()


@pytest.fixture(autouse=True)
def _reset_process_defaults():
    """CLI entry points install process-default ExecOptions and
    ObsOptions (``--jobs`` / ``--chaos`` / ``--metrics-out`` / ...);
    clear both after every test so a CLI test can't silently reshard,
    chaos-test or write artifacts from later Runners."""
    from repro.obs.runtime import set_default_obs_options
    from repro.runner import set_default_exec_options
    yield
    set_default_exec_options(None)
    set_default_obs_options(None)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return RngRegistry(1234).stream("tests")


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """40 users x 6 days — seconds to simulate, rich enough to exercise
    every code path."""
    return ExperimentConfig(n_users=40, n_days=6, train_days=3, seed=99)


@pytest.fixture(scope="session")
def world_source() -> WorldSource:
    return _SOURCE


@pytest.fixture(scope="session")
def tiny_world(tiny_config) -> World:
    return _SOURCE.world_for(tiny_config)


@pytest.fixture(scope="session")
def small_population():
    registry = RngRegistry(7)
    return build_population(PopulationConfig(n_users=25),
                            registry.stream("pop"), TOP15)


@pytest.fixture
def profile_3g():
    return THREE_G
