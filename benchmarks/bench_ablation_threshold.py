"""Ablation: the RUT utilization threshold (paper default: 4 distinct lines).

A lower threshold prefetches earlier (more aggressive, more waste); a higher
threshold waits for more confirmation (less coverage).  The paper picks 4;
this bench shows the sensitivity around that choice.
"""

import pytest
from conftest import check_claims

from repro.core.camps import CampsParams
from repro.experiments.figures import ablation_figure, run_scale
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix

THRESHOLDS = [2, 4, 8, 12]


@pytest.fixture(scope="module")
def refs(experiment_config):
    return min(experiment_config.refs_per_core, 3000)


@pytest.fixture(scope="module")
def traces(refs, experiment_config):
    return mix("HM1", refs, seed=experiment_config.seed)


def run_with_threshold(traces, threshold):
    return System(
        traces,
        SystemConfig(scheme="camps-mod"),
        workload="HM1",
        scheme_kwargs={"params": CampsParams(utilization_threshold=threshold)},
    ).run()


def test_ablation_rut_threshold(benchmark, traces, refs):
    base = System(traces, SystemConfig(scheme="base"), workload="HM1").run()

    def sweep():
        return {t: run_with_threshold(traces, t) for t in THRESHOLDS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nAblation: RUT utilization threshold (HM1, speedup vs BASE)")
    print(f"{'threshold':>10} {'speedup':>9} {'accuracy':>9} {'prefetches':>11}")
    for t, r in results.items():
        print(
            f"{t:>10} {r.speedup_vs(base):>9.3f} {r.row_accuracy:>9.2f} "
            f"{r.prefetches_issued:>11}"
        )

    # the claims: prefetch volume falls with the threshold up to 8, then flattens
    prefetches = {t: r.prefetches_issued for t, r in results.items()}
    check_claims(
        {"rut_threshold": ablation_figure("rut_threshold", "HM1", prefetches)},
        run_scale(refs),
    )
    # Every threshold beats BASE; the paper's 4 stays within 20% of the
    # best (lower thresholds trade accuracy for coverage).
    speedups = {t: results[t].speedup_vs(base) for t in THRESHOLDS}
    assert all(v > 1.0 for v in speedups.values())
    assert speedups[4] >= max(speedups.values()) * 0.80
