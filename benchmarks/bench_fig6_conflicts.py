"""Figure 6: row-buffer conflict rate per scheme.  The paper leaves BASE
out (it precharges after every access, so it has zero conflicts by
construction); the CSV keeps its column so that claim is checked too.

The paper's Figure 6 claims (CAMPS's conflict reduction vs BASE-HIT and
MMD) are rows of ``repro.experiments.figures.CLAIMS``.
"""

from conftest import check_claims, emit

from repro.experiments.figures import paper_figures


def test_fig6_row_buffer_conflicts(benchmark, paper_grid, results_dir, claims_scale):
    data = benchmark.pedantic(
        lambda: paper_figures(paper_grid())["fig6_conflicts"], rounds=1, iterations=1
    )
    emit(data, results_dir, "fig6_conflicts")
    check_claims({"fig6_conflicts": data}, claims_scale)
