"""Fake workloads that fail in each way the benchmark must count.

Each wraps a tiny real farm (4 servers, 20 jobs) and breaks one thing;
child processes reach them as ``bench.tests.fakes:<NAME>``.
"""

from __future__ import annotations

import os

from bench.workloads import Workload, build_table1
from repro.core.invariants import AuditReport


def _tiny(seed: int):
    return build_table1(seed, n_servers=4, n_jobs=20)


def _crash(seed: int):
    model = _tiny(seed)

    def run() -> None:
        raise RuntimeError("injected crash")

    model.run = run
    return model


def _violation(seed: int):
    model = _tiny(seed)
    report = AuditReport()
    report.record("fake.conservation", "farm", False, "injected violation")
    model.audit = lambda: report
    return model


def _short(seed: int):
    model = _tiny(seed)
    model.jobs_target += 1
    return model


def _unstable(seed: int):
    """A digest that differs in every process, as nondeterminism would."""
    model = _tiny(seed)
    model.digest = lambda: f"pid-{os.getpid()}"
    return model


OK = Workload("ok", _tiny, {})
CRASH = Workload("crash", _crash, {})
VIOLATION = Workload("violation", _violation, {})
SHORT = Workload("short", _short, {})
UNSTABLE = Workload("unstable", _unstable, {})
