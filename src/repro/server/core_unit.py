"""A processor core: one task at a time, C-states, DVFS-scaled execution.

Core performance is determined by its hardware configuration (operating
frequency, heterogeneity speed factor) and task settings (computation
intensiveness) — §III-A.  A core's lifecycle is::

    C1 --assign--> ACTIVE --complete--> C1 --c6 timer--> C6 --assign--> ACTIVE

Waking from C6 (and from package C6) adds the configured exit latencies to
the task's start, which is how shallow-sleep policies trade wake latency for
idle power.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.engine import Engine, EventHandle
from repro.core.stats import StateTracker
from repro.jobs.task import Task, TaskState
from repro.server.states import CoreState
from repro.telemetry import session as telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.processor import Processor

#: 2-bit-per-core encoding of the C-state, packed into ``Processor._state_mask``
#: so package-level checks and the per-mask power cache are integer compares.
#: Keyed by the state's string value: in CPython 3.11 hashing an enum member
#: and reading its ``.value`` are Python-level calls.
_MASK_CODE = {CoreState.ACTIVE.value: 0, CoreState.C1.value: 1, CoreState.C6.value: 2}

# Enum members bound once: in CPython 3.11 every ``CoreState.C1`` read goes
# through ``EnumType``'s Python-level ``__getattr__`` hook, and this module
# makes several per task.
_ACTIVE, _C1, _C6 = CoreState.ACTIVE, CoreState.C1, CoreState.C6
_RUNNING, _QUEUED, _FINISHED = TaskState.RUNNING, TaskState.QUEUED, TaskState.FINISHED


class Core:
    """A single execution unit owned by a :class:`Processor`."""

    __slots__ = (
        "processor", "index", "_mask_shift", "speed_factor", "engine", "state",
        "current_task", "_state_since", "tracker", "tasks_completed",
        "_completion", "_c6_timer",
    )

    def __init__(self, processor: "Processor", index: int, speed_factor: float = 1.0):
        if speed_factor <= 0:
            raise ValueError(f"core speed factor must be positive, got {speed_factor}")
        self.processor = processor
        self.index = index
        self._mask_shift = 2 * index
        self.speed_factor = float(speed_factor)
        self.engine: Engine = processor.engine
        self.state = CoreState.C1
        self.current_task: Optional[Task] = None
        self._state_since = self.engine.now
        self.tracker = StateTracker(CoreState.C1.value, self.engine.now)
        self.tasks_completed = 0
        self._completion: Optional[EventHandle] = None
        self._c6_timer: Optional[EventHandle] = None
        # A freshly built core is idle; start the race to power-gate it.
        self._arm_c6_timer()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a task occupies this core (including its wake delay)."""
        return self.current_task is not None

    @property
    def available(self) -> bool:
        """True when the core can accept a task right now."""
        return self.current_task is None

    def execution_time(self, task: Task) -> float:
        """Wall-clock execution time of ``task`` on this core.

        Only the compute-bound fraction of the task scales with frequency and
        core speed; the rest (memory/IO bound work) runs at nominal pace.
        """
        ratio = self.processor.frequency_ghz / self.processor.config.nominal_frequency_ghz
        scale = ratio * self.speed_factor
        compute = task.compute_intensity
        return task.service_time_s * (compute / scale + (1.0 - compute))

    # ------------------------------------------------------------------
    def assign(self, task: Task, extra_start_delay: float = 0.0) -> float:
        """Start ``task`` on this core; returns its completion time.

        ``extra_start_delay`` carries latencies imposed from above (package
        C6 exit).  The core adds its own C6 exit latency if it was power
        gated.  The core is considered powered (ACTIVE) for the whole span —
        wake current is drawn while the core ramps up.
        """
        if self.current_task is not None:
            raise RuntimeError(f"{self} is busy with {self.current_task}")
        now = self.engine._now
        timer = self._c6_timer  # _cancel_c6_timer inlined
        if timer is not None:
            timer.cancel()
            self._c6_timer = None
        proc = self.processor
        wake_delay = 0.0
        if self.state is _C6:
            wake_delay = proc.config.core_profile.c6_exit_latency_s
        self._set_state(_ACTIVE)
        self.current_task = task
        proc._busy += 1
        task.state = _RUNNING
        task.start_time = now
        finish_at = now + extra_start_delay + wake_delay + self.execution_time(task)
        self._completion = self.engine.schedule_at(finish_at, self._complete)
        return finish_at

    def preempt(self) -> Optional[Task]:
        """Abort the running task and return it (used by failure-injection tests).

        The task reverts to QUEUED with no progress retained (tasks are
        restartable units, matching the simulator's task abstraction).
        """
        if self.current_task is None:
            return None
        task = self.current_task
        if self._completion is not None:
            self._completion.cancel()
        self._completion = None
        self.current_task = None
        self.processor._busy -= 1
        task.state = _QUEUED
        task.start_time = None
        self._set_state(_C1)
        self._arm_c6_timer()
        return task

    def force_c6(self) -> None:
        """Immediately power-gate an idle core (used on system sleep entry)."""
        if self.current_task is not None:
            raise RuntimeError(f"cannot force C6 on busy {self}")
        self._cancel_c6_timer()
        self._set_state(_C6)

    def wake_to_idle(self) -> None:
        """Bring a C6 core to C1 without a task (used on system wake)."""
        if self.current_task is not None:
            return
        if self.state is _C6:
            self._set_state(_C1)
            self._arm_c6_timer()

    # ------------------------------------------------------------------
    def _complete(self) -> None:
        task = self.current_task
        assert task is not None
        now = self.engine._now
        proc = self.processor
        self._completion = None
        self.current_task = None
        proc._busy -= 1
        task.state = _FINISHED
        task.finish_time = now
        self.tasks_completed += 1
        ts = telemetry.ACTIVE
        if ts is not None and ts.task is not None:
            rec = ts.task
            # seq_id, not Job.job_id: job ids come from a process-global
            # counter and would differ between --jobs 1 and --jobs 4 runs.
            jid = rec.seq_id("job", task.job)
            rec.complete(
                "task",
                f"j{jid}/{task.name}",
                f"server/{proc.server_label}/cpu{proc.socket_index}.{self.index}",
                task.start_time,
                now - task.start_time,
                args={"job": jid, "type": task.task_type},
            )
        self._set_state(_C1)
        # Deferred arming: completion callbacks often either hand this core a
        # new task (which would cancel the timer straight away) or capture the
        # whole server into the pool (which detaches it).  Arming afterwards —
        # at the same timestamp and therefore the same deadline — skips that
        # schedule/cancel churn.  ServerPool.try_capture knows a just-completed
        # C1 core with no handle is due at now + core_c6_timer_s.
        server = proc._server
        if server is not None:
            server._on_core_complete(self, task)
        if (
            self.current_task is None
            and self.state is _C1
            and self._c6_timer is None
            and (server is None or server._pool_slot < 0)
        ):
            # _arm_c6_timer inlined; ``not timer < 0`` lets a NaN timer
            # through to schedule_at, which refuses it as before.
            timer = proc.config.core_c6_timer_s
            if timer is not None and not timer < 0:
                self._c6_timer = self.engine.schedule_at(now + timer, self._enter_c6)

    # ------------------------------------------------------------------
    # Pool fast-path support (repro.server.pool)
    # ------------------------------------------------------------------
    def restore_c6_deadline(self, deadline: float) -> None:
        """Re-arm the C6 timer at its original absolute deadline.

        :meth:`repro.server.pool.ServerPool.materialize` calls this with the
        C6 deadline the pool recorded at capture, if it has not passed.
        """
        self._cancel_c6_timer()
        self._c6_timer = self.engine.schedule_at(deadline, self._enter_c6)

    def _arm_c6_timer(self) -> None:
        timer = self.processor.config.core_c6_timer_s
        if timer is None or timer < 0:
            return
        self._cancel_c6_timer()
        self._c6_timer = self.engine.schedule(timer, self._enter_c6)

    def _cancel_c6_timer(self) -> None:
        # cancel() is a no-op on a fired or cancelled handle.
        if self._c6_timer is not None:
            self._c6_timer.cancel()
            self._c6_timer = None

    def _enter_c6(self) -> None:
        self._c6_timer = None
        if self.current_task is not None or self.state is not _C1:
            return
        self._set_state(_C6)

    def _set_state(self, state: CoreState) -> None:
        if state is self.state:
            return
        now = self.engine._now
        ts = telemetry.ACTIVE
        if ts is not None and ts.power is not None:
            # Close the span for the C-state we are leaving.
            proc = self.processor
            ts.power.complete(
                "power", self.state.value,
                f"server/{proc.server_label}/cpu{proc.socket_index}.{self.index}",
                self._state_since, now - self._state_since,
            )
        self._state_since = now
        self.state = state
        value = state._value_
        proc = self.processor
        shift = self._mask_shift
        proc._state_mask = (proc._state_mask & ~(3 << shift)) | (
            _MASK_CODE[value] << shift
        )
        self.tracker.set_state(value, now)
        proc.on_core_state_change()

    # ------------------------------------------------------------------
    def power_w(self) -> float:
        """Instantaneous core power at the current C-state and frequency."""
        profile = self.processor.config.core_profile
        if self.state is _ACTIVE:
            ratio = (
                self.processor.frequency_ghz / self.processor.config.nominal_frequency_ghz
            )
            return profile.active_w * ratio**profile.dvfs_exponent
        if self.state is _C1:
            return profile.c1_w
        return profile.c6_w

    def __repr__(self) -> str:
        return f"<Core {self.processor.server_label}/{self.index} {self.state.value}>"
