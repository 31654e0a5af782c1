"""One benchmark repetition, run in a fresh interpreter.

The parent starts ``python -c "from bench.rep import main; main()" REQUEST``
with ``REQUEST`` a JSON object ``{"workload", "seed", "mode"}``;
``mode`` is ``plain``, ``traced`` or ``setup`` (build only, for extra set-up
samples).  The child imports everything first, so interpreter start-up and
imports stay outside every timer, then prints one JSON object as its last
line of output.  A crash prints a traceback and exits non-zero instead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from bench.trace import LayerTracer, read_counters
from bench.workloads import resolve


def _peak_rss_kb() -> int:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure(ref: str, seed: int, mode: str) -> dict:
    workload = resolve(ref)
    start = time.perf_counter()
    model = workload.make(seed)
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "setup_rss_kb": _peak_rss_kb()}
    if mode == "setup":
        return out

    tracer = LayerTracer(model) if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        model.run()
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    # Read before the audit: reading energy materializes pooled servers.
    counters = read_counters(model)

    start = time.perf_counter()
    report = model.audit()
    audit_s = time.perf_counter() - start

    out.update(
        run_s=run_s,
        audit_s=audit_s,
        total_s=setup_s + run_s + audit_s,
        jobs_completed=model.jobs_completed,
        jobs_target=model.jobs_target,
        violations=[v.render() for v in report.violations],
        digest=model.digest(),
        counters=counters,
        layers=tracer.metrics(run_s) if tracer is not None else None,
        peak_rss_kb=_peak_rss_kb(),
    )
    return out


def main() -> None:
    request = json.loads(sys.argv[1])
    result = measure(request["workload"], request["seed"], request["mode"])
    print(json.dumps(result), flush=True)
    # Skip interpreter teardown: freeing a 20K-server model takes seconds
    # that no metric includes, and the parent is waiting for this process.
    os._exit(0)


if __name__ == "__main__":
    main()
