"""Durable single-engine runs: cut at a sim-time cadence, checkpoint, restore.

A durable run drives the experiment's own engine through
:meth:`~repro.core.engine.Engine.run_before` segments ending on a grid of
``checkpoint_every_s`` simulated seconds.  Between two segments no event is
executing, so the world — engine heap, servers and pool, scheduler,
workload driver, RNG streams — is a consistent cut: it is pickled as one
object graph and written atomically with the model fingerprint
(:func:`~repro.checkpoint.format.write_checkpoint`).  Cutting never changes
the event stream and ``run_before`` leaves the clock on the last executed
event, so a run restored from any cut ends bit-identical to the plain run.

A checkpoint only pickles state.  It never calls farm-wide telemetry such
as ``total_energy_j``: those reads materialize pooled servers, which would
change the event stream of the run that continues.

SIGINT/SIGTERM stop the engine after the current event, cut a final
checkpoint and raise :class:`RunInterrupted`; the CLI turns that into exit
status 130 plus the resume command.
"""

from __future__ import annotations

import math
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.checkpoint.format import check_restorable, read_checkpoint, write_checkpoint
from repro.checkpoint.lock import FileLock
from repro.core.heap import settled_build

#: Pickle protocol for world snapshots (matches the sweep journal's choice).
_PICKLE_PROTOCOL = 4


@dataclass(frozen=True)
class DurabilityOptions:
    """Where and how often a durable run checkpoints, and what it resumes.

    ``checkpoint_every_s`` is *simulated* seconds; 0 writes a checkpoint
    only when the run is interrupted.
    """

    checkpoint_path: Optional[str] = None
    checkpoint_every_s: float = 0.0
    restore_from: Optional[str] = None


class RunInterrupted(RuntimeError):
    """A durable run stopped early on SIGINT/SIGTERM.

    The checkpoint (when a path was configured) is on disk when this is
    raised; the attributes carry what the CLI needs for its resume hint.
    """

    def __init__(
        self,
        experiment: str,
        sim_time: float,
        checkpoint_path: Optional[str],
        reason: str,
    ):
        self.experiment = experiment
        self.sim_time = sim_time
        self.checkpoint_path = checkpoint_path
        self.reason = reason
        saved = (
            f"; state checkpointed to {checkpoint_path}"
            if checkpoint_path
            else " (no --checkpoint path: progress not saved)"
        )
        super().__init__(
            f"{experiment} run interrupted ({reason}) at t={sim_time:.6f}s{saved}"
        )


class SignalLatch:
    """Latch SIGINT/SIGTERM and call ``on_signal`` so the run can cut.

    Installed only around a durable run's loop (plain runs keep raw
    KeyboardInterrupt semantics) and only in the main thread — elsewhere
    ``signal.signal`` is illegal and the latch degrades to an inert flag.
    """

    def __init__(self, on_signal: Callable[[], None]):
        self.on_signal = on_signal
        self.signum: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    @property
    def reason(self) -> str:
        try:
            return signal.Signals(self.signum).name if self.signum else "signal"
        except ValueError:  # pragma: no cover - unnamed signal number
            return f"signal {self.signum}"

    def _handle(self, signum, frame) -> None:
        self.signum = signum
        self.on_signal()

    def __enter__(self) -> "SignalLatch":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def load_world(path: str, experiment: str, fingerprint: str) -> Any:
    """The world pickled in checkpoint ``path``, refused on a model mismatch.

    Unpickled under :func:`~repro.core.heap.settled_build`, like a world
    built from scratch.
    """
    header, payload = read_checkpoint(path)
    check_restorable(header, experiment, fingerprint, path)
    with settled_build():
        return pickle.loads(payload)


def _next_cut(t: float, every_s: float) -> float:
    """The first grid point ``k * every_s`` strictly after ``t``."""
    k = math.floor(t / every_s) + 1
    cut = k * every_s
    return cut if cut > t else (k + 1) * every_s


def run_durably(
    engine,
    world: Any,
    options: DurabilityOptions,
    experiment: str,
    fingerprint: str,
) -> None:
    """Run ``engine`` until its queue drains, checkpointing ``world``.

    ``world`` is everything the rest of the run needs (it must include the
    engine); it is what :func:`load_world` hands back on restore.
    """
    path = options.checkpoint_path
    every_s = options.checkpoint_every_s if path else 0.0

    def checkpoint() -> None:
        write_checkpoint(
            path,
            pickle.dumps(world, protocol=_PICKLE_PROTOCOL),
            {
                "experiment": experiment,
                "fingerprint": fingerprint,
                "sim_time": engine.now,
                "events_executed": engine.events_executed,
            },
        )

    lock = FileLock(path).acquire() if path else None
    try:
        with SignalLatch(engine.stop) as latch:
            while not latch.triggered:
                t_next = engine.peek_time()
                if t_next is None:
                    return
                # Past the next event, so every segment makes progress even
                # when events sit exactly on a grid point.
                cut = _next_cut(t_next, every_s) if every_s > 0 else math.inf
                more = engine.run_before(cut)
                if latch.triggered:
                    break
                if not more:
                    return
                checkpoint()
            if path:
                checkpoint()
            raise RunInterrupted(experiment, engine.now, path, latch.reason)
    finally:
        if lock is not None:
            lock.release()
