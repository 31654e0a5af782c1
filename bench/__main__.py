"""Command line: ``python -m bench`` (run from the repository root).

    python -m bench                        # full pass: 5 timed runs + 1 traced run per workload
    python -m bench --workload fig11-joint # full pass on some workloads only
    python -m bench --seed 7               # the same on a held-out seed
    python -m bench --workload W --seed S --seconds T --trace 0|1
                                           # one timed run; last line is one JSON object
    python -m bench compare PARENT.json CHANGE.json
                                           # verdict per workload x end-to-end metric

A full pass prints every metric with its unit, writes
``bench/results/latest.json`` and appends a row to ``bench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from bench import run, stats


def _compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("parent", help="result file of the parent (bench/results/latest.json)")
    parser.add_argument("change", help="result file of the change")
    args = parser.parse_args(argv)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    metrics = run.load_spec()["end_to_end"]
    rows = stats.compare_results(parent, change, metrics)
    print(stats.render_comparison(rows, {m["name"]: m["unit"] for m in metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, help="override every workload's seed")
    parser.add_argument("--seconds", type=float,
                        help="timed-run mode: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="timed-run mode: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    try:
        run.check_checkout()
        if args.seconds is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--seconds needs exactly one --workload")
            session = run.session_for(args.workload[0], args.seed)
            print(json.dumps(run.timed_run(session, args.seconds, bool(args.trace))))
            return 0
        names = args.workload or list(run.pinned_workloads())
        result = run.full_pass(names, args.seed)
    except run.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(run.render_pass(result))
    latest = run.save_pass(result)
    failed = sum(e["failed"] for e in result["workloads"].values())
    attempted = sum(e["attempted"] for e in result["workloads"].values())
    print(f"\n{failed} failed of {attempted} attempted; wrote {latest} "
          f"and appended {run.HISTORY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
