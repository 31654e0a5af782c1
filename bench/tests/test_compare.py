"""Verdicts of ``python -m bench compare`` on synthetic samples."""

import json

import pytest

from bench import stats
from bench.__main__ import main

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def _scaled(values, factor):
    return [v * factor for v in values]


def test_quartiles_follow_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.summarize([1.0, 2.0, 3.0])["n"] == 3


def test_same_distribution_is_within_bound():
    change = list(reversed(PARENT))
    assert stats.compare(PARENT, change, 0.1, "lower").verdict == "within bound"


def test_slower_beyond_bound_is_worse():
    cmp = stats.compare(PARENT, _scaled(PARENT, 1.2), 0.1, "lower")
    assert cmp.verdict == "worse"
    assert cmp.delta == pytest.approx(0.2)


def test_slower_within_bound_is_within_bound():
    assert stats.compare(PARENT, _scaled(PARENT, 1.05), 0.1, "lower").verdict == "within bound"


def test_faster_winning_every_pair_is_better():
    cmp = stats.compare(PARENT, _scaled(PARENT, 0.8), 0.1, "lower")
    assert cmp.verdict == "better"
    assert cmp.pair_wins == 1.0


def test_faster_but_losing_pairs_is_not_better():
    # Median 5% faster, but the change loses 3 of 10 index pairs.
    change = _scaled(PARENT, 0.95)
    for i in (0, 1, 2):
        change[i] = PARENT[i] * 1.01
    cmp = stats.compare(PARENT, change, 0.1, "lower")
    assert cmp.pair_wins == pytest.approx(0.7)
    assert cmp.verdict == "within bound"


def test_gain_needs_ten_pairs():
    assert stats.compare(PARENT[:9], _scaled(PARENT[:9], 0.8), 0.1,
                         "lower").verdict == "within bound"
    change = [8.0, 8.1, 8.2]
    assert stats.compare(PARENT, change, 0.1, "lower").verdict == "within bound"
    # Faster median, but one run is slower than the parent and the spread
    # exceeds the bound: nothing can be concluded.
    change = [8.0, 8.1, 10.5]
    assert stats.compare(PARENT, change, 0.1, "lower").verdict == "unresolved"


def test_wide_overlapping_spread_is_unresolved():
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
    assert stats.compare(PARENT, noisy, 0.1, "lower").verdict == "unresolved"


def test_wide_spread_that_separates_is_resolved():
    worse = [12.0, 20.0, 13.0, 19.0, 15.0]
    assert stats.compare(PARENT, worse, 0.1, "lower").verdict == "worse"


def test_higher_is_better_direction():
    assert stats.compare(PARENT, _scaled(PARENT, 1.3), 0.1, "higher").verdict == "better"
    assert stats.compare(PARENT, _scaled(PARENT, 0.7), 0.1, "higher").verdict == "worse"


def test_compare_command_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def result(factor):
        samples = {"run_s": _scaled(PARENT, factor), "setup_s": PARENT,
                   "total_s": PARENT, "peak_rss_mb": PARENT}
        return {"workloads": {"w1": {"samples": samples}, "w2": {"samples": samples}}}

    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(result(1.0)))
    change.write_text(json.dumps(result(1.5)))
    assert main(["compare", str(parent), str(change)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 8
    assert sum(row.endswith("worse") for row in rows) == 2
    assert sum(row.endswith("within bound") for row in rows) == 6
