"""The data behind every figure of the paper's evaluation (Figures 5-9),
and the paper's claims about it.

Each ``figureN`` function takes a :class:`~repro.metrics.collectors.
ResultMatrix` covering the schemes and mixes that figure plots and returns a
:class:`FigureData` - per-workload series plus the HM/LM/MX/AVG summary the
paper quotes in its text - ready for printing or CSV export.

:data:`CLAIMS` states each quantitative claim of Section 5 once: the
quantity, the paper's value, the relation the measured value must meet, and
the smallest scale at which it must hold.  Every consumer reads it: the
tier-1 shape test, the figure benches, ``repro report`` and the generated
tables of EXPERIMENTS.md.  A claim reads its measured value from a figure
summary, so it evaluates a live matrix and the committed
``benchmarks/results/*.csv`` alike (:func:`read_summaries`).
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.metrics.collectors import (
    ResultMatrix,
    accuracies,
    amat_reduction,
    conflict_rates,
    energy_normalized,
    group_geomean,
    group_mean,
    normalized_speedups,
)
from repro.metrics.report import format_table
from repro.workloads.mixes import mix_names

#: Schemes per figure, in the paper's plot order.
FIG5_SCHEMES = ["base", "base-hit", "mmd", "camps", "camps-mod"]
FIG6_SCHEMES = ["base-hit", "mmd", "camps", "camps-mod"]  # BASE has 0 by construction
FIG7_SCHEMES = ["base", "base-hit", "mmd", "camps", "camps-mod"]
FIG8_SCHEMES = ["mmd", "camps-mod"]
FIG9_SCHEMES = ["base", "mmd", "camps-mod"]

#: summary groups of the Table II mixes (plus "AVG" over every mix)
GROUPS = ("HM", "LM", "MX")


@dataclass
class FigureData:
    """One figure's series plus summaries, in printable form."""

    figure: str
    title: str
    schemes: List[str]
    per_workload: Dict[str, Dict[str, float]]
    summary: Dict[str, Dict[str, float]]
    notes: List[str] = field(default_factory=list)

    def text(self, value_format: str = "{:.3f}") -> str:
        body = format_table(
            self.per_workload,
            self.schemes,
            f"{self.figure}: {self.title}",
            value_format=value_format,
            summary=self.summary,
        )
        if self.notes:
            body += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return body

    def avg(self, scheme: str) -> float:
        return self.summary["AVG"][scheme]


def _mixes(matrix: ResultMatrix) -> List[str]:
    """The matrix's workloads, in the paper's canonical order if they are
    Table II mixes."""
    canonical = [m for m in mix_names() if m in matrix.workloads()]
    return canonical or matrix.workloads()


def figure5(matrix: ResultMatrix, schemes: Sequence[str] = tuple(FIG5_SCHEMES)) -> FigureData:
    """Figure 5: normalized speedup over BASE (geomean per-core IPC)."""
    ws = _mixes(matrix)
    per = normalized_speedups(matrix, schemes, baseline="base", workloads=ws)
    return FigureData(
        "Figure 5",
        "normalized speedup over BASE (higher is better)",
        list(schemes),
        per,
        group_geomean(per, schemes),
        paper_notes("fig5_speedup"),
    )


def figure6(matrix: ResultMatrix, schemes: Sequence[str] = tuple(FIG6_SCHEMES)) -> FigureData:
    """Figure 6: row-buffer conflict rate (lower is better).

    BASE is excluded just as in the paper: it precharges after copying every
    row so it has no row-buffer conflicts by construction.
    """
    ws = _mixes(matrix)
    per = conflict_rates(matrix, schemes, workloads=ws)
    return FigureData(
        "Figure 6",
        "row-buffer conflict rate (lower is better)",
        list(schemes),
        per,
        group_mean(per, schemes),
        paper_notes("fig6_conflicts"),
    )


def figure7(
    matrix: ResultMatrix,
    schemes: Sequence[str] = tuple(FIG7_SCHEMES),
    line_level: bool = False,
) -> FigureData:
    """Figure 7: prefetching accuracy (higher is better).

    Row-level by default: a prefetched row counts as accurate when it served
    at least one demand before leaving the buffer (the prefetch unit in
    every whole-row scheme is the row).  ``line_level=True`` reports the
    fraction of prefetched cache lines referenced instead (fairer to the
    line-granularity MMD scheme).
    """
    ws = _mixes(matrix)
    per = accuracies(matrix, schemes, workloads=ws, line_level=line_level)
    return FigureData(
        "Figure 7",
        ("line-level " if line_level else "") + "prefetching accuracy (higher is better)",
        list(schemes),
        per,
        group_mean(per, schemes),
        paper_notes("fig7_accuracy_lines" if line_level else "fig7_accuracy"),
    )


def figure8(matrix: ResultMatrix, schemes: Sequence[str] = tuple(FIG8_SCHEMES)) -> FigureData:
    """Figure 8: reduction in average memory access time vs BASE."""
    ws = _mixes(matrix)
    per = amat_reduction(matrix, schemes, baseline="base", workloads=ws)
    return FigureData(
        "Figure 8",
        "AMAT reduction vs BASE (higher is better)",
        list(schemes),
        per,
        group_mean(per, schemes),
        paper_notes("fig8_amat"),
    )


def figure9(matrix: ResultMatrix, schemes: Sequence[str] = tuple(FIG9_SCHEMES)) -> FigureData:
    """Figure 9: HMC energy normalized to BASE (lower is better)."""
    ws = _mixes(matrix)
    per = energy_normalized(matrix, schemes, baseline="base", workloads=ws)
    return FigureData(
        "Figure 9",
        "HMC energy normalized to BASE (lower is better)",
        list(schemes),
        per,
        group_mean(per, schemes),
        paper_notes("fig9_energy"),
    )


def paper_figures(matrix: ResultMatrix) -> Dict[str, FigureData]:
    """Figures 5-9 of a paper-scheme matrix, keyed by their CSV name under
    ``benchmarks/results/`` (the keys :data:`CLAIMS` rows name).

    Figure 6 carries a BASE column here, so the zero-conflict claim is read
    from the same data as the others.
    """
    return {
        "fig5_speedup": figure5(matrix),
        "fig6_conflicts": figure6(matrix, schemes=["base", *FIG6_SCHEMES]),
        "fig7_accuracy": figure7(matrix),
        "fig7_accuracy_lines": figure7(matrix, line_level=True),
        "fig8_amat": figure8(matrix, schemes=["base", *FIG8_SCHEMES]),
        "fig9_energy": figure9(matrix),
    }


def ablation_figure(name: str, workload: str, values: Dict[Any, float]) -> FigureData:
    """One ablation on one mix as a figure: a column per swept value, with
    the one row as its summary, so :data:`CLAIMS` reads it like Figs. 5-9."""
    row = {str(k): v for k, v in values.items()}
    return FigureData("Ablation", name, list(row), {workload: row}, {workload: row})


# ----------------------------------------------------------------------
# The paper's claims
# ----------------------------------------------------------------------

#: ``tier1``: HM1 + LM1 at 2500 refs per core (the tier-1 shape test);
#: ``full``: at least 3000 refs per core over all 12 mixes (the benches'
#: default scale and the committed CSVs).  A claim holds from its scale up.
TIER1, FULL = "tier1", "full"
SCALES = (TIER1, FULL)

#: one figure's summary: {group: {scheme or swept value: value}}
Summary = Dict[str, Dict[str, float]]


def run_scale(refs_per_core: int, mixes: Iterable[str] = ()) -> Optional[str]:
    """The largest claim scale a run of ``mixes`` at ``refs_per_core`` meets
    (``mixes`` empty: every mix, as in a one-mix ablation bench)."""
    mixes = set(mixes) or set(mix_names())
    if refs_per_core >= 3000 and mixes >= set(mix_names()):
        return FULL
    if refs_per_core >= 2500 and mixes >= {"HM1", "LM1"}:
        return TIER1
    return None


#: relation name -> test of (measured value, argument); a relation is a
#: (name, argument) pair, e.g. (">", 1.0) or ("in", (1.03, 1.45))
_RELATIONS: Dict[str, Callable[[Any, Any], bool]] = {
    ">": lambda v, x: v > x,
    ">=": lambda v, x: v >= x,
    "<": lambda v, x: v < x,
    "=": lambda v, x: v == x,
    "in": lambda v, x: x[0] < v < x[1],
    # on rankings ("a > b > c"): x is "a or b" / "b and c"
    "led by": lambda v, x: v.split(" > ")[0] in x.split(" or "),
    "ends in": lambda v, x: set(v.split(" > ")[-len(x.split(" and ")):]) == set(x.split(" and ")),
}


def _per_group(group: str, fn: Callable[[Dict[str, float]], float]) -> Callable[[Summary], float]:
    """``fn`` of one summary row; ``lowest``/``highest`` take the extreme
    over the mix groups present (at tier-1 scale each group is one mix)."""

    def measure(summary: Summary) -> float:
        if group in ("lowest", "highest"):
            values = [fn(summary[g]) for g in GROUPS if g in summary]
            return min(values) if group == "lowest" else max(values)
        return fn(summary[group])

    return measure


def _value(group: str, scheme: str):
    return _per_group(group, lambda row: row[scheme])


def _ratio(group: str, a: str, b: str):
    return _per_group(group, lambda row: row[a] / row[b])


def _reduction(group: str, a: str, b: str):
    """How much lower ``a`` is than ``b``, as a fraction of ``b``."""
    return _per_group(group, lambda row: 1 - row[a] / row[b])


def _lead(group: str, a: str, b: str):
    return _per_group(group, lambda row: row[a] - row[b])


def _avg_ranking(summary: Summary) -> str:
    """Schemes from highest to lowest AVG value, as ``"a > b > c"``."""
    avg = summary["AVG"]
    return " > ".join(sorted(avg, key=avg.get, reverse=True))


def _group_ranking(scheme: str):
    """Mix groups from highest to lowest value of ``scheme``."""
    return lambda s: " > ".join(
        sorted((g for g in GROUPS if g in s), key=lambda g: s[g][scheme], reverse=True)
    )


@dataclass(frozen=True)
class Claim:
    """One row of the claims table."""

    figure: str  # summary key: a benchmarks/results CSV stem or an ablation
    quantity: str
    measure: Callable[[Summary], Any]
    paper: Any = None  # the paper's value or ordering; None if it states none
    relation: Optional[Tuple[str, Any]] = None  # None: reported, not checked
    scale: str = FULL  # the smallest scale at which the relation must hold

    @property
    def key(self) -> str:
        return f"{self.figure}:{re.sub(r'[^a-z0-9]+', '-', self.quantity.lower()).strip('-')}"

    def measured(self, summaries: Dict[str, Summary]) -> Any:
        """The measured value; None when the summaries lack its figure or group."""
        try:
            return self.measure(summaries[self.figure])
        except (KeyError, ZeroDivisionError):
            return None

    @property
    def rule(self) -> str:
        """The relation as a table states it, e.g. ``in (1.03, 1.45)``."""
        return "—" if self.relation is None else "{} {}".format(*self.relation)

    def holds(self, summaries: Dict[str, Summary]) -> Optional[bool]:
        got = self.measured(summaries)
        if self.relation is None or got is None:
            return None
        name, arg = self.relation
        return bool(_RELATIONS[name](got, arg))

    def verdict(self, summaries: Dict[str, Summary]) -> str:
        return (
            f"{self.figure}: {self.quantity} = {fmt(self.measured(summaries))}, "
            f"must be {self.rule} from {self.scale} scale (paper {fmt(self.paper)})"
        )


def fmt(v: Any) -> str:
    if v is None:
        return "—"
    return f"{v:.3f}" if isinstance(v, float) else str(v)


#: The paper's Section 5 claims, one row each.  Ratios and reductions of
#: AVG values reproduce the paper's "X% over Y" statements.
CLAIMS: List[Claim] = [
    # Figure 5: normalized speedup over BASE
    Claim("fig5_speedup", "CAMPS-MOD speedup over BASE, HM", _value("HM", "camps-mod"), 1.249, (">", 1.0), TIER1),
    Claim("fig5_speedup", "CAMPS-MOD speedup over BASE, LM", _value("LM", "camps-mod"), 1.094, (">", 1.0), TIER1),
    Claim("fig5_speedup", "CAMPS-MOD speedup over BASE, MX", _value("MX", "camps-mod"), 1.196, (">", 1.0)),
    Claim("fig5_speedup", "CAMPS-MOD speedup over BASE, AVG", _value("AVG", "camps-mod"), 1.179, ("in", (1.03, 1.45)), TIER1),
    Claim("fig5_speedup", "CAMPS-MOD speedup over BASE-HIT, AVG", _ratio("AVG", "camps-mod", "base-hit"), 1.168, (">", 1.0), TIER1),
    Claim("fig5_speedup", "CAMPS-MOD speedup over BASE-HIT, HM", _ratio("HM", "camps-mod", "base-hit"), None, (">", 1.0), TIER1),
    Claim("fig5_speedup", "CAMPS-MOD speedup over MMD, AVG", _ratio("AVG", "camps-mod", "mmd"), 1.087, (">", 1.0)),
    Claim("fig5_speedup", "CAMPS-MOD speedup over MMD, HM", _ratio("HM", "camps-mod", "mmd"), None, (">", 1.0), TIER1),
    Claim("fig5_speedup", "MMD speedup over BASE, AVG", _value("AVG", "mmd"), None, (">", 1.0)),
    Claim("fig5_speedup", "CAMPS-MOD speedup, HM over LM", lambda s: s["HM"]["camps-mod"] / s["LM"]["camps-mod"], None, (">", 1.0), TIER1),
    Claim("fig5_speedup", "mix groups by CAMPS-MOD speedup", _group_ranking("camps-mod"), None, ("=", "HM > MX > LM")),
    Claim("fig5_speedup", "schemes by speedup, AVG", _avg_ranking, None, ("led by", "camps or camps-mod"), TIER1),
    Claim("fig5_speedup", "scheme ordering, AVG", _avg_ranking, "camps-mod > camps > mmd > base-hit > base", ("led by", "camps-mod")),
    # Figure 6: row-buffer conflict rate
    Claim("fig6_conflicts", "BASE conflict rate, AVG", _value("AVG", "base"), 0.0, ("=", 0.0), TIER1),
    Claim("fig6_conflicts", "CAMPS conflict reduction vs BASE-HIT, AVG", _reduction("AVG", "camps", "base-hit"), 0.163),
    Claim("fig6_conflicts", "CAMPS conflict reduction vs BASE-HIT, lowest group", _reduction("lowest", "camps", "base-hit"), None, (">", 0.0), TIER1),
    Claim("fig6_conflicts", "CAMPS-MOD conflict reduction vs BASE-HIT, AVG", _reduction("AVG", "camps-mod", "base-hit"), None, (">", 0.0), TIER1),
    Claim("fig6_conflicts", "CAMPS conflict reduction vs MMD, AVG", _reduction("AVG", "camps", "mmd"), 0.136, ("in", (0.02, 0.5)), TIER1),
    Claim("fig6_conflicts", "CAMPS conflict reduction vs MMD, lowest group", _reduction("lowest", "camps", "mmd"), None, (">", 0.0), TIER1),
    # Figure 7: prefetching accuracy
    Claim("fig7_accuracy", "BASE row accuracy, AVG", _value("AVG", "base"), 0.372),
    Claim("fig7_accuracy", "BASE-HIT row accuracy, AVG", _value("AVG", "base-hit"), 0.421),
    Claim("fig7_accuracy", "MMD row accuracy, AVG", _value("AVG", "mmd"), 0.664),
    Claim("fig7_accuracy", "CAMPS row accuracy, AVG", _value("AVG", "camps"), 0.649),
    Claim("fig7_accuracy", "CAMPS-MOD row accuracy, AVG", _value("AVG", "camps-mod"), 0.705),
    Claim("fig7_accuracy", "schemes by row accuracy, AVG", _avg_ranking, None, ("ends in", "base and mmd"), TIER1),
    Claim("fig7_accuracy", "CAMPS row-accuracy lead over BASE, lowest group", _lead("lowest", "camps", "base"), None, (">", 0.2), TIER1),
    Claim("fig7_accuracy", "CAMPS-MOD row-accuracy lead over BASE, lowest group", _lead("lowest", "camps-mod", "base"), None, (">", 0.2), TIER1),
    Claim("fig7_accuracy", "CAMPS-MOD row-accuracy lead over CAMPS, AVG", _lead("AVG", "camps-mod", "camps"), None, (">=", -0.05), TIER1),
    Claim("fig7_accuracy", "CAMPS-MOD row-accuracy lead over CAMPS, lowest group", _lead("lowest", "camps-mod", "camps"), None, (">=", -0.10), TIER1),
    Claim("fig7_accuracy_lines", "MMD line accuracy, AVG", _value("AVG", "mmd")),
    # Figure 8: AMAT reduction vs BASE
    Claim("fig8_amat", "CAMPS-MOD AMAT reduction vs BASE, AVG", _value("AVG", "camps-mod"), 0.26, (">", 0.0), TIER1),
    Claim("fig8_amat", "CAMPS-MOD AMAT reduction vs BASE, HM", _value("HM", "camps-mod"), None, (">", 0.0), TIER1),
    Claim("fig8_amat", "CAMPS-MOD AMAT reduction vs MMD, AVG", _per_group("AVG", lambda r: 1 - (1 - r["camps-mod"]) / (1 - r["mmd"])), 0.163, (">", 0.0)),
    # Figure 9: HMC energy normalized to BASE
    Claim("fig9_energy", "MMD energy vs BASE, AVG", _value("AVG", "mmd"), 0.94),
    Claim("fig9_energy", "MMD energy vs BASE, highest group", _value("highest", "mmd"), None, ("<", 1.0), TIER1),
    Claim("fig9_energy", "CAMPS-MOD energy vs BASE, AVG", _value("AVG", "camps-mod"), 0.915, ("in", (0.6, 1.0)), TIER1),
    Claim("fig9_energy", "CAMPS-MOD energy vs BASE, highest group", _value("highest", "camps-mod"), None, ("<", 1.0), TIER1),
    Claim("fig9_energy", "CAMPS-MOD energy vs MMD, highest group", _ratio("highest", "camps-mod", "mmd"), None, ("<", 1.0), TIER1),
    # Ablations of the paper's fixed design choices (bench_ablation_*.py)
    Claim("ct_size", "CAMPS-MOD speedup, CT-32 over CT-128, HM3", _ratio("HM3", "32", "128"), None, (">=", 0.95), TIER1),
    Claim("rut_threshold", "prefetches, threshold 4 over 2, HM1", _ratio("HM1", "4", "2"), None, ("<", 1.0), TIER1),
    Claim("rut_threshold", "prefetches, threshold 8 over 4, HM1", _ratio("HM1", "8", "4"), None, ("<", 1.0), TIER1),
    Claim("rut_threshold", "prefetches, threshold 12 over 8, HM1", _ratio("HM1", "12", "8"), None, ("in", (0.99, 1.01)), TIER1),
]


def required(scale: Optional[str], figures: Optional[Iterable[str]] = None) -> List[Claim]:
    """The checked claims that must hold at ``scale`` (none below tier-1),
    of ``figures`` only when given."""
    if scale is None:
        return []
    return [
        c
        for c in CLAIMS
        if c.relation and SCALES.index(c.scale) <= SCALES.index(scale)
        and (figures is None or c.figure in figures)
    ]


def paper_notes(figure: str) -> List[str]:
    """A figure's notes: the paper values its claims state."""
    return [
        f"paper: {c.quantity} = {fmt(c.paper)}"
        for c in CLAIMS
        if c.figure == figure and c.paper is not None
    ]


def read_summaries(results_dir: Union[str, Path]) -> Dict[str, Summary]:
    """Figure summaries from CSVs written by the figure benches, keyed by
    file stem: the group rows (HM/LM/MX/AVG) of each."""
    out: Dict[str, Summary] = {}
    for path in sorted(Path(results_dir).glob("*.csv")):
        with path.open(newline="") as fh:
            rows = {r.pop("workload"): r for r in csv.DictReader(fh)}
        out[path.stem] = {
            g: {k: float(v) for k, v in rows[g].items()}
            for g in (*GROUPS, "AVG")
            if g in rows
        }
    return out
