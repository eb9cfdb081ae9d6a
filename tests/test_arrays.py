"""Tests for the shared NumPy state-array layer (repro.sim.arrays).

Each helper is a vectorized *mirror* of scalar arithmetic (core replay
bumps and retire counts, per-vault sums of bank outcome counters), so each
test pins randomized equivalence between the two, not just fixed examples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.arrays import BankArrays, replay_tables


class _FakeBank:
    def __init__(self, hits=0, empties=0, conflicts=0):
        self.hits = hits
        self.empties = empties
        self.conflicts = conflicts


class _FakeVault:
    def __init__(self, banks):
        self.banks = banks


def _random_vaults(rng, nvaults=4, banks_per_vault=8):
    vaults = []
    for _ in range(nvaults):
        banks = [
            _FakeBank(
                hits=int(rng.integers(0, 1000)),
                empties=int(rng.integers(0, 1000)),
                conflicts=int(rng.integers(0, 1000)),
            )
            for _ in range(banks_per_vault)
        ]
        vaults.append(_FakeVault(banks))
    return vaults


# ----------------------------------------------------------------------
# replay_tables
# ----------------------------------------------------------------------
@pytest.mark.parametrize("issue_width", [1, 2, 4, 7])
def test_replay_tables_matches_scalar(issue_width):
    rng = np.random.default_rng(7)
    gaps = rng.integers(0, 50, size=200)
    bumps, retire = replay_tables(gaps, issue_width)
    assert isinstance(bumps, list) and isinstance(retire, list)
    instr = 0
    for i, g in enumerate(gaps.tolist()):
        assert bumps[i] == -(-g // issue_width)  # ceil division
        instr += g + 1
        assert retire[i] == instr


def test_replay_tables_rejects_bad_width():
    with pytest.raises(ValueError):
        replay_tables([1, 2, 3], 0)


def test_replay_tables_empty_trace():
    bumps, retire = replay_tables([], 4)
    assert bumps == [] and retire == []


# ----------------------------------------------------------------------
# BankArrays
# ----------------------------------------------------------------------
def test_bank_arrays_requires_vaults():
    with pytest.raises(ValueError):
        BankArrays([])


def test_bank_arrays_gather_and_vault_sums():
    rng = np.random.default_rng(3)
    vaults = _random_vaults(rng)
    arrays = BankArrays(vaults)
    conf, acc = arrays.vault_outcome_sums()
    for v, vault in enumerate(vaults):
        expect_conf = sum(b.conflicts for b in vault.banks)
        expect_acc = sum(b.hits + b.empties + b.conflicts for b in vault.banks)
        assert conf[v] == expect_conf
        assert acc[v] == expect_acc


def test_bank_arrays_refresh_tracks_mutation():
    vaults = _random_vaults(np.random.default_rng(5))
    arrays = BankArrays(vaults)
    stale_conf, stale_acc = arrays.vault_outcome_sums()
    vaults[0].banks[0].conflicts += 17
    vaults[1].banks[2].hits += 5
    # snapshots are stale until refreshed
    conf, acc = arrays.vault_outcome_sums()
    assert conf[0] == stale_conf[0] and acc[1] == stale_acc[1]
    arrays.refresh_outcomes()
    conf, acc = arrays.vault_outcome_sums()
    assert conf[0] == stale_conf[0] + 17
    assert acc[0] == stale_acc[0] + 17
    assert acc[1] == stale_acc[1] + 5
