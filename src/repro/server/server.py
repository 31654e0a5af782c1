"""The server model: sockets, local queues, system sleep states, power.

A server accepts tasks from the global scheduler, queues them locally,
executes them on cores, and reports completions back.  Its power controller
(see :mod:`repro.power`) decides when to enter system sleep states; the
server enforces the legal transition graph::

    S0 --sleep()--> ENTERING_SLEEP --entry latency--> S3/S5
    S3/S5 --request_wake()--> WAKING --exit latency--> S0

A wake requested while the server is still entering sleep is honoured as
soon as entry completes (the "wake race" every delay-timer policy hits).

Fault injection (:mod:`repro.faults`) adds one more state: FAILED.  A failed
server aborts all in-flight tasks, drops its local queue, draws no power and
refuses work until :meth:`Server.repair` returns it to S0.

Energy is accounted per component — CPU, DRAM, platform — exactly the
breakdown Fig. 9 of the paper reports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import ServerConfig
from repro.core.engine import Engine, EventHandle
from repro.core.stats import EnergyAccount, StateTracker
from repro.jobs.task import Task
from repro.server.core_unit import Core
from repro.server.local_scheduler import make_local_scheduler
from repro.server.processor import Processor
from repro.server.states import PackageState, ResidencyCategory, SystemState
from repro.telemetry import session as telemetry

SLEEP_LEVELS = {"s3": SystemState.S3, "s5": SystemState.S5}

# Enum members bound once (each ``Enum.MEMBER`` read is a Python-level call
# in CPython 3.11; see core_unit).
_S0, _ENTERING = SystemState.S0, SystemState.ENTERING_SLEEP
_S3, _S5, _WAKING, _FAILED = (
    SystemState.S3, SystemState.S5, SystemState.WAKING, SystemState.FAILED,
)
_PC6 = PackageState.PC6


class Server:
    """One simulated server (Fig. 2 of the paper)."""

    # A farm holds tens of thousands of servers, and CPython 3.11 shares an
    # instance dict's keys only up to 29 attributes: past that, every
    # instance carries a private ~1.6 KB dict.  ``on_task_complete`` stays
    # in the per-instance ``__dict__``: it is the one attribute wired per
    # server, and tools wrap it per instance through ``vars(server)``.
    __slots__ = (
        "__dict__", "__weakref__",
        "engine", "config", "server_id", "name",
        "_system_state", "_sleep_target", "_wake_pending", "_transition",
        "_pool", "_pool_slot", "_notify_held", "_availability_listeners",
        "processors", "_single_proc", "_cpower_cache",
        "_p_failed", "_p_s3", "_p_s5", "_p_waking", "_all_cores",
        "local_scheduler", "power_controller", "residency",
        "cpu_energy", "dram_energy", "platform_energy",
        "tasks_completed", "tasks_submitted", "failure_count", "repair_count",
        "tags", "_state_since",
    )

    def __init__(
        self,
        engine: Engine,
        config: ServerConfig,
        server_id: int = 0,
        name: Optional[str] = None,
        allow_package_c6: bool = True,
    ):
        self.engine = engine
        self.config = config
        self.server_id = server_id
        self.name = name or f"{config.name}-{server_id}"
        self._system_state = _S0
        self._sleep_target = _S3
        self._wake_pending = False
        self._transition: Optional[EventHandle] = None
        # Pool fast path (see repro.server.pool): while captured, _pool_slot
        # is the pool column index and system_state is answered virtually.
        self._pool = None
        self._pool_slot = -1
        # True only inside start_task_on_core's assign window, where the
        # core-state notification is provably a zero-length no-op.
        self._notify_held = False
        # Callbacks fired on fail()/repair() so the global scheduler can keep
        # an O(1) cached candidate list instead of rescanning the farm.
        self._availability_listeners: List[Callable[["Server"], None]] = []

        self.processors: List[Processor] = [
            Processor(
                engine,
                config.processor,
                socket_index=i,
                server_label=self.name,
                allow_package_c6=allow_package_c6,
            )
            for i in range(config.n_sockets)
        ]
        for proc in self.processors:
            proc._server = self
        # Single-socket fast path: component powers and the residency
        # category in S0/ENTERING_SLEEP are a pure function of (core-state
        # mask, package state, any-busy, P-state), so cache the computed
        # tuples; entries are produced by the general path below and are
        # therefore bit-identical to a fresh computation.  The map is shared
        # across every server built from this config object at the same
        # P-state, so a homogeneous farm warms it once rather than once per
        # server.
        self._single_proc = self.processors[0] if len(self.processors) == 1 else None
        self._repoint_cpower_cache()
        # Constant (cpu, dram, platform, category) tuples for the states
        # whose draw doesn't depend on core/package state, built once per
        # config object and shared by every server built from it.
        draws = config.__dict__.get("_constant_draws")
        if draws is None:
            plat = config.platform
            core_profile = config.processor.core_profile
            pkg_profile = config.processor.package_profile
            draws = config.__dict__["_constant_draws"] = (
                (0.0, 0.0, 0.0, ResidencyCategory.FAILED),
                (0.0, plat.dram_selfrefresh_w, plat.s3_w, ResidencyCategory.SYS_SLEEP),
                (0.0, 0.0, plat.s5_w, ResidencyCategory.SYS_SLEEP),
                (
                    config.n_sockets
                    * (pkg_profile.pc0_w + config.processor.n_cores * core_profile.c1_w),
                    plat.dram_active_w,
                    plat.wake_w,
                    ResidencyCategory.WAKE_UP,
                ),
            )
        self._p_failed, self._p_s3, self._p_s5, self._p_waking = draws
        self._all_cores: List[Core] = [
            core for proc in self.processors for core in proc.cores
        ]
        self.local_scheduler = make_local_scheduler(self, config.queue_policy)

        # Observers wired by the global scheduler / power policies.
        self.on_task_complete: Optional[Callable[["Server", Task], None]] = None
        self.power_controller = None  # set via attach_controller()

        # Telemetry.
        now = engine.now
        self.residency = StateTracker(ResidencyCategory.IDLE, now)
        self.cpu_energy = EnergyAccount("cpu", 0.0, now)
        self.dram_energy = EnergyAccount("dram", 0.0, now)
        self.platform_energy = EnergyAccount("platform", 0.0, now)
        self.tasks_completed = 0
        self.tasks_submitted = 0
        self.failure_count = 0
        self.repair_count = 0
        self.tags: Dict[str, object] = {}
        self._state_since = now  # start of the current system_state interval
        self._update_accounts(now)

    # ------------------------------------------------------------------
    # Pool fast path
    # ------------------------------------------------------------------
    @property
    def system_state(self) -> SystemState:
        """The ACPI system state; answered virtually while pooled."""
        if self._pool_slot >= 0:
            return self._pool.virtual_system_state(self)
        return self._system_state

    def ensure_materialized(self) -> None:
        """Leave the pool fast path, restoring exact per-server state."""
        if self._pool_slot >= 0:
            self._pool.materialize(self)

    def _on_idle(self) -> None:
        """The server just went fully idle: pool it, or start its delay timer."""
        pool = self._pool
        if pool is not None and pool.try_capture(self):
            return
        if self.power_controller is not None:
            self.power_controller.on_server_idle(self)

    def add_availability_listener(self, callback: Callable[["Server"], None]) -> None:
        """Register a callback invoked after fail() and repair()."""
        self._availability_listeners.append(callback)

    def _notify_availability(self) -> None:
        for callback in self._availability_listeners:
            callback(self)

    # ------------------------------------------------------------------
    # Controller attachment
    # ------------------------------------------------------------------
    def attach_controller(self, controller) -> None:
        """Attach a power controller (see :mod:`repro.power.controller`)."""
        self.ensure_materialized()
        self.power_controller = controller
        controller.attach(self)
        if self._pool is not None and self.is_idle and self.can_execute:
            # Re-enter the pool under the new controller's sleep plan (the
            # attach() above may have scheduled a real delay timer; capture
            # folds it into the cohort columns).
            self._on_idle()

    # ------------------------------------------------------------------
    # Task intake and execution
    # ------------------------------------------------------------------
    def submit_task(self, task: Task) -> None:
        """Accept a task from the global scheduler (or the network)."""
        if self._pool_slot >= 0:
            self._pool.materialize(self)
        if self._system_state is _FAILED:
            raise RuntimeError(f"cannot submit task to failed server {self.name}")
        self.tasks_submitted += 1
        task.server_id = self.server_id
        self.local_scheduler.enqueue(task)
        if self.power_controller is not None:
            self.power_controller.on_task_arrival(self, task)
        if self._system_state is _S0:
            self.local_scheduler.dispatch()
        else:
            self.request_wake()

    @property
    def can_execute(self) -> bool:
        """True while the platform is in S0 and cores may start tasks."""
        if self._pool_slot >= 0:
            return self._pool.virtual_system_state(self) is _S0
        return self._system_state is _S0

    def can_start_task(self) -> bool:
        """True when a task submitted now would start at once: the server is
        in S0 and some core is free.

        A pooled server answers from its virtual state; it is idle, so every
        core is free.
        """
        if self._pool_slot >= 0:
            return self._pool.virtual_system_state(self) is _S0
        if self._system_state is not _S0:
            return False
        for proc in self.processors:
            if proc._busy < proc.config.n_cores:
                return True
        return False

    def all_cores(self) -> List[Core]:
        """Every core across all sockets."""
        return list(self._all_cores)

    def find_available_core(self) -> Optional[Core]:
        """The best free core across sockets (fastest first), or None."""
        best: Optional[Core] = None
        for proc in self.processors:
            core = proc.first_available_core()
            if core is not None and (best is None or core.speed_factor > best.speed_factor):
                best = core
        return best

    def start_task_on_core(self, core: Core, task: Task) -> None:
        """Dispatch ``task`` on ``core``, charging package-C6 exit latency."""
        if not self.can_execute:
            raise RuntimeError(f"{self.name} cannot execute in {self.system_state.value}")
        delay = core.processor.prepare_dispatch()
        # The C1/C6->ACTIVE transition inside assign() fires a power-change
        # notification before current_task is set; its accrual is zero-length
        # (same timestamp) and its residency category matches the preceding
        # prepare_dispatch state, so it is observably a no-op.  Suppress it
        # and publish the real post-assign values once below.
        self._notify_held = True
        try:
            core.assign(task, extra_start_delay=delay)
        finally:
            self._notify_held = False
        self._update_accounts(self.engine._now)

    def preempt_core(self, core: Core) -> Optional[Task]:
        """Abort the task running on ``core`` and hand the core new work.

        Returns the aborted task (restartable: resubmit it to run it again),
        or None if the core was idle.  Used by failure-injection studies and
        by policies that reclaim cores.
        """
        self.ensure_materialized()
        task = core.preempt()
        if task is not None:
            self.local_scheduler.on_core_free(core)
            self._update_accounts(self.engine._now)
        return task

    def _on_core_complete(self, core: Core, task: Task) -> None:
        self.tasks_completed += 1
        self.local_scheduler.on_core_free(core)
        # No power/residency update here: Core._complete's C1 transition (and
        # any dispatch on_core_free triggered) already set the exact values
        # at this timestamp; a repeat would accrue zero-length intervals.
        if self.on_task_complete is not None:
            self.on_task_complete(self, task)
        if self.power_controller is not None:
            self.power_controller.on_task_complete(self, task)
        if self.is_idle:
            self._on_idle()

    # ------------------------------------------------------------------
    # Load metrics (used by global scheduling and pool policies)
    # ------------------------------------------------------------------
    @property
    def running_task_count(self) -> int:
        """Tasks currently occupying cores."""
        n = 0
        for proc in self.processors:
            n += proc._busy
        return n

    @property
    def queued_task_count(self) -> int:
        """Tasks waiting in the local queue(s)."""
        return self.local_scheduler.queued_count

    @property
    def pending_task_count(self) -> int:
        """Running + queued tasks — the per-server load estimator input."""
        return self.running_task_count + self.queued_task_count

    @property
    def is_idle(self) -> bool:
        """No running and no queued tasks."""
        for proc in self.processors:
            if proc._busy:
                return False
        return self.local_scheduler.queued_count == 0

    @property
    def total_cores(self) -> int:
        return self.config.total_cores

    # ------------------------------------------------------------------
    # System sleep state machine
    # ------------------------------------------------------------------
    def sleep(self, level: str = "s3") -> bool:
        """Begin the transition to a system sleep state.

        Returns False (and does nothing) if the server has pending work or is
        already sleeping/transitioning — policies are expected to drain a
        server before parking it.
        """
        if level not in SLEEP_LEVELS:
            raise ValueError(f"unknown sleep level {level!r}; expected one of {list(SLEEP_LEVELS)}")
        self.ensure_materialized()
        if self._system_state is not _S0 or not self.is_idle:
            return False
        self._sleep_target = SLEEP_LEVELS[level]
        self._wake_pending = False
        for proc in self.processors:
            proc.force_sleep()
        self._set_system_state(_ENTERING)
        entry = (
            self.config.platform.s3_entry_latency_s
            if self._sleep_target is _S3
            else self.config.platform.s5_entry_latency_s
        )
        self._transition = self.engine.schedule(entry, self._sleep_entry_complete)
        return True

    def request_wake(self) -> None:
        """Ask a sleeping (or falling-asleep) server to return to S0."""
        self.ensure_materialized()
        if self._system_state in (_S0, _WAKING, _FAILED):
            return
        if self._system_state is _ENTERING:
            self._wake_pending = True
            return
        self._begin_wake()

    def _sleep_entry_complete(self) -> None:
        self._transition = None
        self._set_system_state(self._sleep_target)
        if self._wake_pending:
            self._wake_pending = False
            self._begin_wake()

    def _begin_wake(self) -> None:
        self._set_system_state(_WAKING)
        exit_latency = (
            self.config.platform.s3_exit_latency_s
            if self._sleep_target is _S3
            else self.config.platform.s5_exit_latency_s
        )
        self._transition = self.engine.schedule(exit_latency, self._wake_complete)

    def _wake_complete(self) -> None:
        self._transition = None
        self._set_system_state(_S0)
        for proc in self.processors:
            proc.wake_from_sleep()
        if self.power_controller is not None:
            self.power_controller.on_server_awake(self)
        self.local_scheduler.dispatch()
        if self.is_idle:
            self._on_idle()

    # ------------------------------------------------------------------
    # Failure and repair (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    @property
    def is_failed(self) -> bool:
        """True while the server is down due to an injected fault."""
        # Pooled servers are never FAILED, so the raw field is always right.
        return self._system_state is _FAILED

    def fail(self) -> List[Task]:
        """Crash the server: abort in-flight work, drop the local queue.

        Returns every task that was running or queued here — these are lost
        (tasks are restartable units) and must be re-dispatched elsewhere by
        the global scheduler's recovery path.  Failing an already-failed
        server is a no-op returning no tasks.
        """
        self.ensure_materialized()
        if self._system_state is _FAILED:
            return []
        if self._transition is not None and self._transition.pending:
            self._transition.cancel()
        self._transition = None
        self._wake_pending = False
        lost: List[Task] = []
        for core in self.all_cores():
            task = core.preempt()
            if task is not None:
                lost.append(task)
        lost.extend(self.local_scheduler.drain())
        for proc in self.processors:
            proc.force_sleep()
        self.failure_count += 1
        self._set_system_state(_FAILED)
        self._notify_availability()
        return lost

    def repair(self) -> bool:
        """Return a failed server to S0, ready to accept work again."""
        if self._system_state is not _FAILED:
            return False
        self.repair_count += 1
        self._set_system_state(_S0)
        for proc in self.processors:
            proc.wake_from_sleep()
        self._notify_availability()
        if self.power_controller is not None:
            self.power_controller.on_server_awake(self)
        if self.is_idle:
            self._on_idle()
        return True

    def _set_system_state(self, state: SystemState) -> None:
        if state is self._system_state:
            return
        ts = telemetry.ACTIVE
        if ts is not None and ts.power is not None:
            # Close the span for the state we are leaving.
            now = self.engine.now
            ts.power.complete(
                "power",
                self._system_state.value,
                f"server/{self.name}",
                self._state_since,
                now - self._state_since,
            )
        self._state_since = self.engine.now
        self._system_state = state
        self._update_accounts(self.engine._now)

    # ------------------------------------------------------------------
    # Power and residency accounting
    # ------------------------------------------------------------------
    def _repoint_cpower_cache(self) -> None:
        """Bind ``_cpower_cache`` to the shared per-(config, P-state) map.

        Called at construction and after every ``Processor.set_frequency``:
        cached tuples embed the active-core power, so a retuned server must
        read the map for its new frequency (same-frequency peers keep
        sharing theirs).
        """
        proc1 = self._single_proc
        freq = proc1.frequency_ghz if proc1 is not None else None
        shared = self.config.__dict__.setdefault("_cpower_caches", {})
        self._cpower_cache: Dict[int, Tuple[float, float, float, str]] = (
            shared.setdefault(freq, {})
        )

    def _component_powers(self) -> Tuple[float, float, float, str]:
        """(cpu, dram, platform) draw plus the Fig.-8 residency category.

        Reads ``_system_state`` directly: every caller runs on the exact
        per-server path (or inside a pool replay, which maintains it).
        Explicit accumulation loops match the former ``sum(genexpr)`` float
        order exactly.  The category is cached with the draw because it is
        a function of the same key: entering sleep is SysSleep, any busy
        core Active, a package in PC6 PkgC6, anything else Idle.
        """
        state = self._system_state
        if state is _FAILED:
            return self._p_failed
        if state is _S3:
            return self._p_s3
        if state is _S5:
            return self._p_s5
        if state is _WAKING:
            # Components ramp at full draw while resuming; the CPU is modelled
            # at package-active/core-halt power for the wake duration.
            return self._p_waking
        # S0 and ENTERING_SLEEP: power follows actual core/package states.
        proc1 = self._single_proc
        key = None
        if proc1 is not None:
            # Packed int key: (mask, in-PC6, any-busy, entering-sleep).
            # Processor.set_frequency repoints the cache, so the P-state
            # needn't be part of the key.
            key = (
                (proc1._state_mask << 3)
                | ((proc1.package_state is _PC6) << 2)
                | ((proc1._busy > 0) << 1)
                | (state is _ENTERING)
            )
            hit = self._cpower_cache.get(key)
            if hit is not None:
                return hit
        platform = self.config.platform
        cpu = 0
        for proc in self.processors:
            cpu = cpu + proc.power_w()
        any_busy = False
        for proc in self.processors:
            if proc._busy:
                any_busy = True
                break
        dram = platform.dram_active_w if any_busy else platform.dram_idle_w
        other = platform.other_active_w if any_busy else platform.other_idle_w
        if state is _ENTERING:
            other = platform.other_idle_w
            dram = platform.dram_idle_w
            category = ResidencyCategory.SYS_SLEEP
        elif any_busy:
            category = ResidencyCategory.ACTIVE
        else:
            category = ResidencyCategory.PKG_C6
            for proc in self.processors:
                if proc.package_state is not _PC6:
                    category = ResidencyCategory.IDLE
                    break
        result = (cpu, dram, other, category)
        if key is not None:
            self._cpower_cache[key] = result
        return result

    def _update_accounts(self, now: float) -> None:
        """Accrue each component's energy up to ``now``, then take up the
        current state's draw and residency category.

        Runs several times per dispatched task, so the cache hit of
        :meth:`_component_powers` is repeated inline (same key).
        """
        proc = self._single_proc
        state = self._system_state
        draw = None
        if proc is not None and (state is _S0 or state is _ENTERING):
            draw = self._cpower_cache.get(
                (proc._state_mask << 3)
                | ((proc.package_state is _PC6) << 2)
                | ((proc._busy > 0) << 1)
                | (state is _ENTERING)
            )
        if draw is None:
            draw = self._component_powers()
        cpu, dram, plat, category = draw
        # Inlined EnergyAccount.set_power (same accrual expression, minus the
        # backwards-time guard).
        acct = self.cpu_energy
        acct._energy_j += acct._power_w * (now - acct._since)
        acct._power_w = cpu
        acct._since = now
        acct = self.dram_energy
        acct._energy_j += acct._power_w * (now - acct._since)
        acct._power_w = dram
        acct._since = now
        acct = self.platform_energy
        acct._energy_j += acct._power_w * (now - acct._since)
        acct._power_w = plat
        acct._since = now
        self.residency.set_state(category, now)

    # ------------------------------------------------------------------
    # Telemetry accessors
    # ------------------------------------------------------------------
    @property
    def power_w(self) -> float:
        """Total instantaneous server power (CPU + DRAM + platform)."""
        self.ensure_materialized()
        cpu, dram, plat, _ = self._component_powers()
        return cpu + dram + plat

    @property
    def cpu_power_w(self) -> float:
        """Instantaneous CPU (package + cores) power."""
        self.ensure_materialized()
        return self._component_powers()[0]

    def energy_breakdown_j(self, now: Optional[float] = None) -> Dict[str, float]:
        """Energy per component in joules up to ``now`` (Fig. 9's breakdown)."""
        self.ensure_materialized()
        t = self.engine.now if now is None else now
        return {
            "cpu": self.cpu_energy.energy_j(t),
            "dram": self.dram_energy.energy_j(t),
            "platform": self.platform_energy.energy_j(t),
        }

    def total_energy_j(self, now: Optional[float] = None) -> float:
        """Total server energy in joules up to ``now``."""
        return sum(self.energy_breakdown_j(now).values())

    def residency_fractions(self, now: Optional[float] = None) -> Dict[str, float]:
        """Fraction of time per Fig.-8 category since simulation start."""
        self.ensure_materialized()
        t = self.engine.now if now is None else now
        fractions = self.residency.residency_fractions(t)
        return {cat: fractions.get(cat, 0.0) for cat in ResidencyCategory.ALL}

    def __repr__(self) -> str:
        return (
            f"<Server {self.name} {self.system_state.value} "
            f"busy={self.running_task_count}/{self.total_cores} "
            f"queued={self.queued_task_count}>"
        )
