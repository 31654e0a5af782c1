"""The workload driver: inject jobs from an arrival process into the farm.

Connects an :class:`~repro.workload.arrivals.ArrivalProcess` (or raw trace)
to a :class:`~repro.scheduling.GlobalScheduler`, one engine event per
arrival.  Supports stopping after a job budget and/or a time horizon, which
the benches use to bound experiment runtime.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.core.engine import Engine
from repro.jobs.task import Job
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.workload.arrivals import ArrivalProcess


class WorkloadDriver:
    """Schedules job arrivals on the engine and submits them to the scheduler."""

    def __init__(
        self,
        engine: Engine,
        scheduler: GlobalScheduler,
        arrival_process: ArrivalProcess,
        job_factory: Callable[[float], Job],
        max_jobs: Optional[int] = None,
        until: Optional[float] = None,
    ):
        if max_jobs is not None and max_jobs <= 0:
            raise ValueError(f"max_jobs must be positive, got {max_jobs}")
        if until is not None and not until > engine.now:
            raise ValueError(
                f"until must be later than the clock ({engine.now}), got {until}"
            )
        self.engine = engine
        self.scheduler = scheduler
        self.arrival_process = arrival_process
        self.job_factory = job_factory
        self.max_jobs = max_jobs
        self.until = until
        self.jobs_injected = 0
        self._arrivals: Optional[Iterator[float]] = None
        self._started = False

    def start(self) -> None:
        """Schedule the first arrival; call once before ``engine.run()``."""
        if self._started:
            raise RuntimeError("workload driver already started")
        self._started = True
        self._arrivals = self.arrival_process.arrivals()
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.max_jobs is not None and self.jobs_injected >= self.max_jobs:
            return
        assert self._arrivals is not None
        try:
            when = next(self._arrivals)
        except StopIteration:
            return
        if self.until is not None and when > self.until:
            return
        now = self.engine._now
        if when < now:
            # Traces may start before the current clock (e.g. replays mid-run);
            # deliver immediately rather than rejecting the event.
            when = now
        self.engine.post_at(when, self._inject, when)

    def _inject(self, when: float) -> None:
        job = self.job_factory(when)
        self.jobs_injected += 1
        self.scheduler.submit_job(job)
        self._schedule_next()
