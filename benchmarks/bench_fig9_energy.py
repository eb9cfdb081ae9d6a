"""Figure 9: HMC energy normalized to BASE.

The paper's Figure 9 claims (MMD and CAMPS-MOD save energy over BASE,
CAMPS-MOD more than MMD) are rows of ``repro.experiments.figures.CLAIMS``.
"""

from conftest import check_claims, emit

from repro.experiments.figures import paper_figures


def test_fig9_energy(benchmark, paper_matrix, results_dir, claims_scale):
    data = benchmark.pedantic(
        lambda: paper_figures(paper_matrix)["fig9_energy"], rounds=1, iterations=1
    )
    emit(data, results_dir, "fig9_energy")
    check_claims({"fig9_energy": data}, claims_scale)
