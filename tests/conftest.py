"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dram.timing import DRAMTimings
from repro.hmc.address import AddressMapping
from repro.hmc.config import HMCConfig
from repro.sim.engine import Engine


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the shared result log at this test's own directory, so no test
    reads cells another test (or an earlier run) left behind."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache.jsonl"))


@pytest.fixture
def config() -> HMCConfig:
    """The paper's Table I configuration."""
    return HMCConfig()


@pytest.fixture
def small_config() -> HMCConfig:
    """A shrunken cube for fast integration tests: 4 vaults x 4 banks."""
    return HMCConfig(vaults=4, banks_per_vault=4, pf_buffer_entries=4)


@pytest.fixture
def timings() -> DRAMTimings:
    return DRAMTimings()


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def mapping(config: HMCConfig) -> AddressMapping:
    return AddressMapping(config)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_trace_arrays(addrs, writes=None, gap=4):
    """Build (gaps, addrs, writes) arrays from a list of addresses."""
    n = len(addrs)
    gaps = np.full(n, gap, dtype=np.int64)
    a = np.array(addrs, dtype=np.int64)
    w = np.zeros(n, dtype=bool) if writes is None else np.array(writes, dtype=bool)
    return gaps, a, w
