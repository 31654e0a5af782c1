"""Medians, quartiles and the parent-versus-change verdict.

The verdict follows the benchmark's rules for judging a change:

* **better** — at least ten index-paired runs per side, the change wins at
  least nine tenths of the pairs, and its median beats the parent's by more
  than the parent's own quartile spread;
* **unresolved** — the run-to-run spread (either side's quartile distance
  over its median) is wider than the bound and the two sets of runs do not
  separate, so "no worse" cannot be shown;
* **worse** — the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
* **within bound** — otherwise.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Pairs needed, and the share of them a change must win, to claim a gain.
MIN_PAIRS = 10
PAIR_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _gain(parent: float, change: float, better: str) -> float:
    """Positive when ``change`` is better than ``parent``."""
    return parent - change if better == "lower" else change - parent


def pair_win_share(parent: Sequence[float], change: Sequence[float],
                   better: str) -> Optional[float]:
    """Share of index-paired runs the change wins; ties count for neither.

    None unless both sides have the same number of runs.
    """
    if len(parent) != len(change) or not parent:
        return None
    wins = sum(1 for p, c in zip(parent, change) if _gain(p, c, better) > 0)
    return wins / len(parent)


@dataclass
class Comparison:
    verdict: str
    parent: Dict[str, float]
    change: Dict[str, float]
    #: Median change as a share of the parent median; positive = worse.
    delta: float
    spread: float
    pair_wins: Optional[float]


def compare(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> Comparison:
    """Judge one metric on one workload; ``bound`` is a share of the parent median."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    delta = -_gain(p_med, c_med, better) / abs(p_med) if p_med else 0.0
    spread = max(relative_spread(parent), relative_spread(change))
    wins = pair_win_share(parent, change, better)
    all_better = all(_gain(p, c, better) > 0 for p in parent for c in change)
    all_worse = all(_gain(p, c, better) < 0 for p in parent for c in change)

    beats_noise = _gain(p_med, c_med, better) > p_q3 - p_q1
    wins_enough = wins is not None and len(parent) >= MIN_PAIRS and wins >= PAIR_WIN_SHARE
    if beats_noise and wins_enough:
        verdict = "better"
    elif spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif delta > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return Comparison(verdict, summarize(parent), summarize(change), delta, spread, wins)


def compare_results(parent: dict, change: dict,
                    metrics: Sequence[dict]) -> List[Tuple[str, str, Comparison]]:
    """One comparison per workload present on both sides × end-to-end metric.

    ``parent``/``change`` are result files written by a full pass; ``metrics``
    are the ``end_to_end`` entries of BENCHMARK.json.
    """
    rows = []
    for workload, p_entry in parent["workloads"].items():
        c_entry = change["workloads"].get(workload)
        if c_entry is None:
            continue
        for metric in metrics:
            name = metric["name"]
            rows.append((workload, name, compare(
                p_entry["samples"][name], c_entry["samples"][name],
                metric["bound"], metric["better"],
            )))
    return rows


def render_comparison(rows: Sequence[Tuple[str, str, Comparison]],
                      units: Dict[str, str]) -> str:
    header = (f"{'workload':<18} {'metric':<12} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>8} {'spread':>7} "
              f"{'pairs':>6}  verdict")
    lines = [header]
    for workload, name, cmp in rows:
        unit = units.get(name, "")

        def side(s: Dict[str, float]) -> str:
            return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {unit} n={s['n']}"

        pairs = "-" if cmp.pair_wins is None else f"{cmp.pair_wins:.2f}"
        lines.append(
            f"{workload:<18} {name:<12} {side(cmp.parent):>30} {side(cmp.change):>30} "
            f"{100 * cmp.delta:>+7.1f}% {100 * cmp.spread:>6.1f}% {pairs:>6}  {cmp.verdict}"
        )
    return "\n".join(lines)
