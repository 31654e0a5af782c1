"""Parallel, resumable sweep execution and performance benchmarking.

Every case study in the paper (Figs. 4-11, Table I) is a *sweep*: the same
seeded simulation repeated over a grid of parameter points.  Points are
independent by construction (each builds its own engine, farm, and RNG
streams from an explicit seed), which makes them embarrassingly parallel.
This package provides:

* :class:`~repro.runner.sweep.SweepSpec` / :class:`~repro.runner.sweep.SweepPoint`
  — a declarative, picklable description of a sweep;
* :func:`~repro.runner.sweep.run_sweep` /
  :func:`~repro.runner.sweep.run_sweep_detailed` — execute a spec through
  one loop, in-process or on a spawn-safe worker pool, with bit-identical
  results either way.  :class:`~repro.runner.sweep.SweepOptions` sets the
  policy: a fail-fast per-point timeout, ``keep_going`` for points that
  raise, and checkpoint/resume through a
  :class:`~repro.runner.journal.SweepJournal`;
* :mod:`repro.runner.bench` — the ``repro bench`` harness: eight hot-path
  microbenchmarks that CI gates against ``BENCH_core.json``.
"""

from repro.runner.journal import SweepJournal, point_fingerprint, stable_repr
from repro.runner.sweep import (
    PointOutcome,
    SweepError,
    SweepInterrupted,
    SweepOptions,
    SweepPoint,
    SweepResult,
    SweepSpec,
    derive_label,
    host_cpus,
    run_sweep,
    run_sweep_detailed,
)

__all__ = [
    "PointOutcome",
    "SweepError",
    "SweepInterrupted",
    "SweepJournal",
    "SweepOptions",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "derive_label",
    "host_cpus",
    "point_fingerprint",
    "run_sweep",
    "run_sweep_detailed",
    "stable_repr",
]
