"""Ablation: Conflict Table capacity (paper default: 32 entries per vault).

Too small a CT forgets conflict-prone rows before their second activation;
larger CTs catch longer conflict reuse distances at hardware cost (20 bits
per entry, Section 3.3).
"""

import pytest
from conftest import check_claims

from repro.core.camps import CampsParams
from repro.experiments.figures import ablation_figure, run_scale
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix

CT_SIZES = [4, 16, 32, 128]


@pytest.fixture(scope="module")
def refs(experiment_config):
    return min(experiment_config.refs_per_core, 3000)


@pytest.fixture(scope="module")
def traces(refs, experiment_config):
    return mix("HM3", refs, seed=experiment_config.seed)  # conflict-heavy mix


def test_ablation_ct_size(benchmark, traces, refs):
    base = System(traces, SystemConfig(scheme="base"), workload="HM3").run()

    def sweep():
        out = {}
        for n in CT_SIZES:
            out[n] = System(
                traces,
                SystemConfig(scheme="camps-mod"),
                workload="HM3",
                scheme_kwargs={"params": CampsParams(conflict_table_entries=n)},
            ).run()
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nAblation: Conflict Table entries (HM3, speedup vs BASE)")
    print(f"{'CT size':>8} {'speedup':>9} {'conflict':>9} {'prefetches':>11}")
    for n, r in results.items():
        print(
            f"{n:>8} {r.speedup_vs(base):>9.3f} {r.conflict_rate:>9.3f} "
            f"{r.prefetches_issued:>11}"
        )

    # A reasonable CT must beat a nearly-absent one on conflict-heavy traffic.
    assert results[32].conflict_rate <= results[4].conflict_rate + 0.02
    # the claims: the paper's 32 entries capture most of the benefit of 128
    speedups = {n: r.speedup_vs(base) for n, r in results.items()}
    check_claims(
        {"ct_size": ablation_figure("ct_size", "HM3", speedups)},
        run_scale(refs),
    )
