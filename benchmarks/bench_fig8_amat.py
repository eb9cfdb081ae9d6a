"""Figure 8: reduction in average memory access time vs BASE.

The paper's Figure 8 claims (CAMPS-MOD's AMAT reduction vs BASE and vs
MMD) are rows of ``repro.experiments.figures.CLAIMS``.
"""

from conftest import check_claims, emit

from repro.experiments.figures import paper_figures


def test_fig8_amat_reduction(benchmark, paper_grid, results_dir, claims_scale):
    data = benchmark.pedantic(
        lambda: paper_figures(paper_grid())["fig8_amat"], rounds=1, iterations=1
    )
    emit(data, results_dir, "fig8_amat")
    check_claims({"fig8_amat": data}, claims_scale)
