"""The verdict of ``tools/bench_pairs.py`` on fixed numbers: the benchmark's
rules for a gain and for a regression, one metric at a time."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs._quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs._quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_clear_gain_on_a_higher_is_better_metric():
    change = [x + 10.0 for x in PARENT]
    change[3] = 100.0  # a tie: counts for neither side
    v = verdict(PARENT, change, "higher", 0.25)
    assert v["parent"] == (99.25, 100.0, 100.75)
    assert v["wins"] == 9 and v["pairs"] == 10
    assert v["beyond_iqr"] and v["gain"]
    assert v["regression"] == "within bound"


def test_eight_wins_claim_no_gain():
    change = [x + 10.0 for x in PARENT]
    change[3] = change[4] = 90.0
    v = verdict(PARENT, change, "higher", 0.25)
    assert v["wins"] == 8 and not v["gain"]


def test_gain_on_a_lower_is_better_metric():
    v = verdict(PARENT, [x - 10.0 for x in PARENT], "lower", 0.25)
    assert v["wins"] == 10 and v["gain"]
    assert not verdict(PARENT, [x - 10.0 for x in PARENT], "higher",
                       0.25)["gain"]


def test_medians_within_the_parent_spread_claim_no_gain():
    v = verdict(PARENT, [x + 0.5 for x in PARENT], "higher", 0.25)
    assert v["wins"] == 10 and not v["beyond_iqr"] and not v["gain"]


@pytest.mark.parametrize("better, factor, regression", [
    ("higher", 0.7, "worse"),          # 30% fewer per second
    ("higher", 0.8, "within bound"),   # 20% fewer, inside the 25% bound
    ("lower", 1.3, "worse"),           # 30% more milliseconds
    ("lower", 0.5, "within bound"),
])
def test_regression_against_the_bound(better, factor, regression):
    v = verdict(PARENT, [x * factor for x in PARENT], better, 0.25)
    assert v["regression"] == regression


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0]
    v = verdict(parent, [x * 0.95 for x in parent], "higher", 0.25)
    assert v["regression"] == "unresolved"
    # Unless every run of the change reads better than every parent run.
    assert verdict(parent, [150.0] * 5, "higher",
                   0.25)["regression"] == "within bound"
