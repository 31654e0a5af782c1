"""Module-level worker functions for sweep-runner tests.

Spawn-based workers pickle callables by qualified name, so everything a
sweep executes must live in an importable module — test functions defined
inside test files or closures will not do.  The misbehaving workers take a
``scratch_dir`` so cross-process state (how many times have I run?) lives in
files rather than memory.
"""

from __future__ import annotations

import os
import signal
import time


def double(x: int, seed: int = 0) -> int:
    return 2 * x


def add(a, b):
    return a + b


def always_raises(x: int) -> None:
    raise ValueError(f"point {x} is broken")


def sleeps_forever(x: int, sleep_s: float = 60.0) -> int:
    time.sleep(sleep_s)
    return x


def raises_keyboard_interrupt(x: int) -> int:
    """Raise KeyboardInterrupt inside the point, as Ctrl-C does in a worker."""
    raise KeyboardInterrupt


def sigkill_self_once(x: int, scratch_dir: str) -> int:
    """SIGKILL the worker process on the first call, then return ``x``.

    Models a worker dying mid-point (OOM kill, segfault): the pool breaks
    with no exception from the task itself.
    """
    marker = os.path.join(scratch_dir, f"kill-{x}.marker")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def report_pid(x: int) -> int:
    """Return the executing process id, for elastic-worker tests."""
    return os.getpid()


def record_execution(x: int, scratch_dir: str) -> int:
    """Return ``x`` and leave a breadcrumb proving the point really ran."""
    with open(os.path.join(scratch_dir, f"ran-{x}.marker"), "w") as fh:
        fh.write("ran")
    return x


def traced_work(x: int, fail_above: int = 10**9) -> int:
    """Emit deterministic trace events / metrics under any active session.

    Used by the telemetry-capture tests: the emitted content depends only on
    ``x``, so assembled payloads must be identical however the sweep ran.
    """
    from repro.telemetry import session as telemetry

    ts = telemetry.ACTIVE
    if ts is not None and ts.task is not None:
        rec = ts.task
        rec.complete("task", f"work-{x}", "sim/work", float(x), 0.5, args={"x": x})
        rec.instant("task", "tick", "sim/work", float(x) + 1.0)
    if ts is not None and ts.metrics is not None:
        ts.metrics.register_counter("work.x", x)
    if x >= fail_above:
        raise RuntimeError(f"point {x} exploded")
    return x


def traced_then_interrupted(x: int) -> int:
    """Emit one trace event, then raise KeyboardInterrupt as Ctrl-C would."""
    from repro.telemetry import session as telemetry

    ts = telemetry.ACTIVE
    if ts is not None and ts.task is not None:
        ts.task.instant("task", "about-to-interrupt", "sim/work", float(x))
    raise KeyboardInterrupt
