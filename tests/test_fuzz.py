"""Property-based fuzzing of the vault controller and full device.

Random request storms across every scheme must always drain (no deadlock,
no lost requests) while preserving the structural invariants: buffer recency
permutation, non-negative stats, and accounting identities.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.schemes import make_prefetcher, scheme_names
from repro.hmc.config import HMCConfig
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.vault.controller import VaultController

CFG = HMCConfig(banks_per_vault=4, pf_buffer_entries=4)

request_strategy = st.tuples(
    st.integers(0, 3),  # bank
    st.integers(0, 5),  # row
    st.integers(0, 15),  # column
    st.booleans(),  # write
    st.integers(0, 50),  # inter-arrival gap
)


def drive(scheme, storm):
    eng = Engine()
    responses = []
    vc = VaultController(
        vault_id=0,
        config=CFG,
        engine=eng,
        prefetcher=make_prefetcher(scheme, 0, CFG),
        respond_fn=lambda req, ready: responses.append((req, ready)),
    )
    t = 0
    reqs = []
    for bank, row, col, write, gap in storm:
        t += gap
        r = MemoryRequest(0, write)
        r.vault, r.bank, r.row, r.column = 0, bank, row, col
        reqs.append(r)
        eng.call_at(t, vc.receive, r)
    eng.run()
    return vc, eng, reqs, responses


@pytest.mark.parametrize("scheme", scheme_names())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(storm=st.lists(request_strategy, min_size=1, max_size=80))
def test_storm_always_drains(scheme, storm):
    vc, eng, reqs, responses = drive(scheme, storm)
    # every request answered exactly once
    assert len(responses) == len(reqs)
    assert {id(r) for r, _ in responses} == {id(r) for r in reqs}
    # response ready times never precede arrival
    for r, ready in responses:
        assert ready >= r.vault_arrive_cycle
    # queues fully drained
    assert len(vc.queues) == 0
    # structural invariants
    if vc.buffer is not None:
        assert vc.buffer.check_recency_invariant()
        assert len(vc.buffer) <= CFG.pf_buffer_entries
    # accounting identity: every request was served by a bank or the buffer
    served = vc.demand_accesses + vc.stats.counter("buffer_hits").value
    assert served == len(reqs)


@settings(max_examples=15, deadline=None)
@given(
    storm=st.lists(request_strategy, min_size=5, max_size=60),
    seed_scheme=st.sampled_from(["camps", "camps-mod", "mmd", "base"]),
)
def test_storm_bank_counters_consistent(storm, seed_scheme):
    vc, eng, reqs, responses = drive(seed_scheme, storm)
    for b in vc.banks:
        assert b.hits + b.empties + b.conflicts == b.demand_accesses
        assert b.acts >= b.conflicts  # every conflict implied an activate
        assert b.busy_until <= eng.now + 10**7


@settings(max_examples=10, deadline=None)
@given(storm=st.lists(request_strategy, min_size=5, max_size=60))
def test_storm_deterministic(storm):
    _, eng1, _, resp1 = drive("camps-mod", storm)
    _, eng2, _, resp2 = drive("camps-mod", storm)
    assert [t for _, t in resp1] == [t for _, t in resp2]
    assert eng1.now == eng2.now
