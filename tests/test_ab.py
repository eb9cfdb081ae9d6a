"""The verdict of ``benchmarks/ab.py`` on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _path)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

#: parent runs of one metric: median 100.25, quartiles 99.625 and 101.375
PARENT = [99.0, 100.0, 101.0, 102.0, 99.5, 100.5, 101.5, 98.5, 102.5, 100.0]
#: parent runs spread over 80 - 120 (IQR 17.5, 17.5% of the median)
WIDE = [100.0, 80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0]


def _shifted(by, losses=0):
    """The parent's runs moved by ``by``; the first ``losses`` pairs lose."""
    return [p - 1.0 if i < losses else p + by for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("parent, change, better, bound, verdict", [
    # wins 9/10 and the medians differ by more than the parent's IQR
    (PARENT, _shifted(5.0, losses=1), "higher", 0.25, "better"),
    # the same gain won in only 8/10 pairs is no claim
    (PARENT, _shifted(5.0, losses=2), "higher", 0.25, "no regression"),
    # 10/10 wins inside the parent's own spread is no claim either
    (PARENT, _shifted(1.0), "higher", 0.25, "no regression"),
    # median 30% worse than the parent's, beyond a 25% bound
    (PARENT, [0.7 * p for p in PARENT], "higher", 0.25, "worse"),
    # lower is better: a 30% rise is a loss
    (PARENT, _shifted(30.0), "lower", 0.25, "worse"),
    # medians 0.5% apart, but the runs spread wider than a 1% bound
    (WIDE, [1.005 * p for p in WIDE], "lower", 0.01, "unresolved"),
    # as wide, but every change run beats every parent run
    ([0.0] * 5 + [100.0] * 5, [101.0] * 10, "higher", 0.01, "no regression"),
], ids=["9of10", "8of10", "inside-iqr", "worse", "worse-lower", "spread",
        "every-run-wins"])
def test_verdict(parent, change, better, bound, verdict):
    assert ab.verdict(parent, change, better, bound)["verdict"] == verdict


def test_quartiles_and_wins_are_reported():
    got = ab.verdict(PARENT, _shifted(5.0, losses=1), "higher", 0.25)
    assert got["parent"] == pytest.approx(
        {"q1": 99.625, "median": 100.25, "q3": 101.375})
    assert (got["wins"], got["pairs"]) == (9, 10)
