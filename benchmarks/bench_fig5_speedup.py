"""Figure 5: normalized speedup of each scheme over BASE.

The paper's Figure 5 claims (CAMPS-MOD's gain per mix group and over
BASE-HIT and MMD, the scheme ordering, HM gains above LM gains) are rows of
``repro.experiments.figures.CLAIMS``; ``check_claims`` asserts each one at
or below this run's scale.

The grid behind this figure comes from the session-scoped ``paper_matrix``
fixture; set ``REPRO_JOBS=4`` to shard it across a ``repro.campaign``
worker pool (the merged matrix is deterministic, so the checks are
parallelism-independent).
"""

from conftest import check_claims, emit

from repro.experiments.figures import paper_figures


def test_fig5_normalized_speedup(benchmark, paper_matrix, results_dir, claims_scale):
    data = benchmark.pedantic(
        lambda: paper_figures(paper_matrix)["fig5_speedup"], rounds=1, iterations=1
    )
    emit(data, results_dir, "fig5_speedup")
    check_claims({"fig5_speedup": data}, claims_scale)
