"""Figure 7: prefetching accuracy per scheme.

The paper's Figure 7 values, and the relations this model must keep (BASE
and MMD least accurate at row level, the CAMPS family far above BASE,
CAMPS-MOD close to CAMPS), are rows of ``repro.experiments.figures.CLAIMS``.

Known deviation (see EXPERIMENTS.md): with synthetic traffic, BASE-HIT's few
queue-confirmed prefetches are almost always revisited, so its accuracy is
far higher here than in the paper.
"""

from conftest import check_claims, emit

from repro.experiments.figures import paper_figures


def test_fig7_prefetch_accuracy(benchmark, paper_matrix, results_dir, claims_scale):
    figures = benchmark.pedantic(
        lambda: paper_figures(paper_matrix), rounds=1, iterations=1
    )
    emit(figures["fig7_accuracy"], results_dir, "fig7_accuracy")
    # the line-level variant (fairer to the line-granular MMD scheme)
    emit(figures["fig7_accuracy_lines"], results_dir, "fig7_accuracy_lines")
    check_claims(
        {k: figures[k] for k in ("fig7_accuracy", "fig7_accuracy_lines")}, claims_scale
    )
