"""Farm-scale fast path: pooled idle-server state machines.

The scalability wall of the farm layer is not the event kernel — it is the
per-server bookkeeping of idle cascades.  A settled-idle server's future is
fully deterministic: core C6 after the core timer, package C6 after the
package timer, and (under a delay-timer policy) system sleep after τ plus the
entry latency.  Simulating that cascade with per-server engine events costs
several heap operations and power/residency updates per idle period — times
100K servers, that is the whole bench.

:class:`ServerPool` applies the packet-train trick (see
``repro.network.fast_path``) to servers:

* **capture** — when a server goes fully idle (and its power controller's
  behaviour is *virtualizable*, see ``sleep_plan``), the pool cancels the
  server's real per-core C6 timers, package-C6 timer, and delay timer, and
  records their absolute deadlines in ``array('d')``-backed columns.  The
  only engine events that remain are per-*cohort* boundary events shared by
  every server whose deadline coincides (at farm start, one event stands in
  for the entire fleet's sleep commit).
* **virtual state** — while pooled, ``Server.system_state`` is answered in
  O(1) from the columns: S0 before the sleep commit, ENTERING_SLEEP between
  commit and entry-complete, S3/S5 after.  Scheduling policies therefore see
  exactly the state the unpooled server would be in.
* **materialize** — the instant anything needs per-server truth (the global
  scheduler dispatches a task, a fault injector crashes the server, a
  telemetry/facility probe reads its power, DVFS retunes its frequency), the
  pool replays the crossed cascade stages into the server's real state
  trackers and energy accounts *with the same float operations in the same
  order* the event path would have used, restores any still-pending timers at
  their original absolute deadlines, and returns the server to the exact
  path.  Results are bit-identical to the unpooled simulation; the
  property-diff suite in ``tests/server/test_pool_fast_path.py`` holds this
  line.

Known (measure-zero) boundary caveat: when an unrelated event lands at the
*exact* float instant of a core-C6 or package-C6 deadline, the pooled path
treats the C-state as already entered whereas the unpooled path resolves the
tie by event sequence number.  Sleep-commit and sleep-entry boundaries — the
ones the wake race depends on — carry cohort fired-flags and are exact.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import Engine, EventHandle
from repro.server.states import CoreState, PackageState, SystemState
from repro.telemetry import session as telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server

#: Column sentinels: the stage already happened before capture / never happens.
ALREADY = float("-inf")
NEVER = float("inf")

_LEVEL_TO_STATE = (SystemState.S3, SystemState.S5)
_LEVEL_INDEX = {"s3": 0, "s5": 1}


class _Cohort:
    """One shared boundary event: all pooled servers whose cascade crosses
    the same absolute time ride a single heap entry."""

    __slots__ = ("time", "handle", "members", "fired")

    def __init__(self, time: float, handle: EventHandle):
        self.time = time
        self.handle: Optional[EventHandle] = handle
        self.members = 0
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<_Cohort t={self.time!r} members={self.members} {state}>"


class ServerPool:
    """Aggregate settled-idle servers into pooled state machines.

    One pool serves one (homogeneous) farm: the column layout is fixed by the
    first captured server's core/socket counts, and servers with a different
    shape simply stay on the exact path.
    """

    def __init__(self, engine: Engine, enabled: bool = True):
        self.engine = engine
        self.enabled = enabled
        # Slot columns (parallel arrays; slots are recycled via a free list).
        self._captured_at = array("d")
        self._commit = array("d")     # absolute sleep-commit time (NEVER if none)
        self._done = array("d")       # absolute sleep-entry-complete time
        self._core_dl = array("d")    # flat, stride = cores per server
        self._pc6_dl = array("d")     # flat, stride = sockets per server
        self._level = bytearray()     # 0 = s3, 1 = s5
        self._servers: List[Optional["Server"]] = []
        self._commit_cohorts: List[Optional[_Cohort]] = []
        self._done_cohorts: List[Optional[_Cohort]] = []
        self._settle_cohorts: List[Optional[_Cohort]] = []
        self._free: List[int] = []
        self._cohorts_by_time: Dict[float, _Cohort] = {}
        # Shape of the homogeneous farm; fixed by the first capture.
        self._w = 0   # cores per server
        self._s = 0   # sockets per server
        # Counters surfaced by benches and audits.
        self.captures = 0
        self.materializations = 0
        self.pooled_count = 0
        self.peak_pooled = 0

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def adopt(self, server: "Server") -> None:
        """Register ``server`` with this pool and capture it if already idle."""
        server._pool = self
        if (
            server._pool_slot < 0
            and server._system_state is SystemState.S0
            and server.is_idle
        ):
            self.try_capture(server)

    def try_capture(self, server: "Server") -> bool:
        """Capture a settled-idle server; returns False if it must stay exact.

        Callers guarantee the server is idle (no running or queued tasks).
        Capture is refused when power-span tracing is active (pooling elides
        the per-stage spans), when the controller's behaviour cannot be
        expressed as a (τ, level) plan, or when the server's shape does not
        match the pool's column layout.
        """
        if not self.enabled or server._pool_slot >= 0:
            return False
        ts = telemetry.ACTIVE
        if ts is not None and ts.power is not None:
            return False
        if server._system_state is not SystemState.S0 or server._transition is not None:
            return False
        controller = server.power_controller
        if controller is None:
            tau: Optional[float] = None
            level = "s3"
        else:
            plan_fn = getattr(controller, "sleep_plan", None)
            if plan_fn is None:
                return False
            plan = plan_fn(server)
            if plan is None:
                return False
            tau, level = plan
            if level not in _LEVEL_INDEX:
                # An invalid level would raise at timer expiry on the exact
                # path; stay exact so it still does.
                return False
        procs = server.processors
        cores = server._all_cores
        if self._w == 0:
            self._w, self._s = len(cores), len(procs)
        elif len(cores) != self._w or len(procs) != self._s:
            return False

        slot = self._alloc_slot()
        now = self.engine._now
        base = slot * self._w
        sbase = slot * self._s
        core_dl = self._core_dl
        pc6_dl = self._pc6_dl

        # Inlined core/package timer detach (see Core.detach_c6_deadline /
        # Processor.detach_pc6_deadline): this loop runs once per capture on
        # the farm hot path, and the call overhead is measurable at scale.
        # ``settle`` accumulates the latest finite deadline for the no-sleep
        # cohort in the same pass.
        idx = base
        settle = ALREADY
        for proc in procs:
            latest = ALREADY
            for core in proc.cores:
                if core.state is CoreState.C6:
                    dl = ALREADY
                else:
                    handle = core._c6_timer
                    if handle is not None and handle.pending:
                        dl = handle.time
                        handle.cancel()
                        core._c6_timer = None
                    else:
                        # A C1 core with no handle is a just-completed core
                        # whose deferred arming (Core._complete) has not run
                        # yet; it would arm at exactly now + timer.
                        timer = proc.config.core_c6_timer_s
                        if timer is not None and timer >= 0:
                            dl = now + timer
                        else:
                            dl = NEVER
                core_dl[idx] = dl
                idx += 1
                if dl > latest:
                    latest = dl
            if proc.package_state is PackageState.PC6:
                pdl = ALREADY
            else:
                handle = proc._pc6_timer
                if handle is not None and handle.pending:
                    pdl = handle.time
                    handle.cancel()
                    proc._pc6_timer = None
                else:
                    # No timer pending: the package reaches PC6 only after
                    # every core power-gates, plus the package timer.
                    timer = proc.config.package_c6_timer_s
                    if (
                        proc.allow_package_c6
                        and timer is not None
                        and ALREADY < latest < NEVER
                    ):
                        pdl = latest + timer
                    else:
                        pdl = NEVER
            pc6_dl[sbase] = pdl
            sbase += 1
            if NEVER > latest > settle:
                settle = latest
            if NEVER > pdl > settle:
                settle = pdl

        if tau is None:
            commit = done = NEVER
        else:
            commit = now + tau
            platform = server.config.platform
            entry = (
                platform.s3_entry_latency_s
                if level == "s3"
                else platform.s5_entry_latency_s
            )
            done = commit + entry
        self._captured_at[slot] = now
        self._commit[slot] = commit
        self._done[slot] = done
        self._level[slot] = _LEVEL_INDEX[level]

        if controller is not None:
            controller.clear_idle_timer(server)

        if commit < NEVER:
            self._commit_cohorts[slot] = self._join_cohort(commit)
            self._done_cohorts[slot] = self._join_cohort(done)
            self._settle_cohorts[slot] = None
        else:
            # No sleep plan: a single boundary event at the cascade's end
            # keeps full-drain clock advancement identical to the exact path.
            self._commit_cohorts[slot] = None
            self._done_cohorts[slot] = None
            self._settle_cohorts[slot] = (
                self._join_cohort(settle) if now < settle < NEVER else None
            )

        self._servers[slot] = server
        server._pool_slot = slot
        self.captures += 1
        self.pooled_count += 1
        if self.pooled_count > self.peak_pooled:
            self.peak_pooled = self.pooled_count
        return True

    # ------------------------------------------------------------------
    # Virtual state
    # ------------------------------------------------------------------
    def virtual_system_state(self, server: "Server") -> SystemState:
        """The system state the server would be in on the exact path, O(1)."""
        slot = server._pool_slot
        now = self.engine._now
        commit = self._commit[slot]
        if now < commit:
            return SystemState.S0
        if now == commit:
            cohort = self._commit_cohorts[slot]
            if cohort is not None and not cohort.fired:
                return SystemState.S0
        done = self._done[slot]
        if now < done:
            return SystemState.ENTERING_SLEEP
        if now == done:
            cohort = self._done_cohorts[slot]
            if cohort is not None and not cohort.fired:
                return SystemState.ENTERING_SLEEP
        return _LEVEL_TO_STATE[self._level[slot]]

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, server: "Server") -> None:
        """Return ``server`` to exact per-server state, replaying the crossed
        cascade stages into its trackers and energy accounts."""
        slot = server._pool_slot
        if slot < 0:
            return
        server._pool_slot = -1
        self._servers[slot] = None
        self.pooled_count -= 1
        self.materializations += 1

        engine = self.engine
        now = engine._now
        commit = self._commit[slot]
        done = self._done[slot]
        commit_cohort = self._commit_cohorts[slot]
        done_cohort = self._done_cohorts[slot]
        commit_applied = commit < now or (
            commit == now and commit_cohort is not None and commit_cohort.fired
        )
        done_applied = commit_applied and (
            done < now
            or (done == now and done_cohort is not None and done_cohort.fired)
        )

        # Stages the cascade crossed while pooled, in event order.  A stage
        # at the commit instant itself is folded into the commit replay (the
        # forced transition lands on the same state at the same time).
        stages: List[Tuple[float, int, object]] = []
        core_dl = self._core_dl
        idx = slot * self._w
        sidx = slot * self._s
        for proc in server.processors:
            for core in proc.cores:
                dl = core_dl[idx]
                idx += 1
                if ALREADY < dl <= now and dl < commit:
                    stages.append((dl, 0, core))
            pdl = self._pc6_dl[sidx]
            sidx += 1
            if ALREADY < pdl <= now and pdl < commit:
                stages.append((pdl, 1, proc))
        if len(stages) > 1:
            stages.sort(key=_stage_key)

        # Each stage goes through the server's own accounting step, so the
        # replayed values are the exact floats the event path would produce.
        for t, kind, obj in stages:
            if kind == 0:
                core = obj
                core.state = CoreState.C6
                core._state_since = t
                proc = core.processor
                proc._state_mask = (proc._state_mask & ~(3 << core._mask_shift)) | (
                    2 << core._mask_shift
                )
                core.tracker.set_state("C6", t)
            else:
                proc = obj
                proc.package_state = PackageState.PC6
                proc.tracker.set_state("PC6", t)
            server._update_accounts(t)

        if commit_applied:
            t = commit
            for proc in server.processors:
                for core in proc.cores:
                    if core.state is not CoreState.C6:
                        core.state = CoreState.C6
                        core._state_since = t
                        proc._state_mask = (
                            proc._state_mask & ~(3 << core._mask_shift)
                        ) | (2 << core._mask_shift)
                        core.tracker.set_state("C6", t)
                if proc.package_state is not PackageState.PC6:
                    proc.package_state = PackageState.PC6
                    proc.tracker.set_state("PC6", t)
            # Same update cadence as Server.sleep(): once after the forced
            # C-state cascade (category becomes PkgC6), once after the system
            # state flips (category becomes SysSleep).
            server._update_accounts(t)
            server._sleep_target = _LEVEL_TO_STATE[self._level[slot]]
            server._wake_pending = False
            server._system_state = SystemState.ENTERING_SLEEP
            server._state_since = t
            server._update_accounts(t)
            if done_applied:
                server._system_state = server._sleep_target
                server._state_since = done
                server._transition = None
                server._update_accounts(done)
            else:
                server._transition = engine.schedule_at(
                    done, server._sleep_entry_complete
                )
        else:
            # Still S0: restore every pending timer at its original deadline.
            idx = slot * self._w
            sidx = slot * self._s
            for proc in server.processors:
                all_c6 = True
                for core in proc.cores:
                    dl = core_dl[idx]
                    idx += 1
                    if core.state is not CoreState.C6:
                        all_c6 = False
                        if ALREADY < dl < NEVER:
                            core.restore_c6_deadline(dl)
                pdl = self._pc6_dl[sidx]
                sidx += 1
                if (
                    all_c6
                    and proc.package_state is not PackageState.PC6
                    and now < pdl < NEVER
                ):
                    proc.restore_pc6_deadline(pdl)
            if commit < NEVER:
                controller = server.power_controller
                if controller is not None:
                    controller.restore_idle_timer(server, commit)

        self._leave_cohort(commit_cohort)
        self._leave_cohort(done_cohort)
        self._leave_cohort(self._settle_cohorts[slot])
        self._commit_cohorts[slot] = None
        self._done_cohorts[slot] = None
        self._settle_cohorts[slot] = None
        self._free.append(slot)

    def materialize_all(self) -> int:
        """Materialize every pooled server (end-of-run / audit); returns count."""
        n = 0
        for server in list(self._servers):
            if server is not None:
                self.materialize(server)
                n += 1
        return n

    # ------------------------------------------------------------------
    # Cohorts
    # ------------------------------------------------------------------
    def _join_cohort(self, time: float) -> Optional[_Cohort]:
        if time >= NEVER:
            return None
        cohort = self._cohorts_by_time.get(time)
        if cohort is None:
            cohort = _Cohort(time, None)
            cohort.handle = self.engine.schedule_at(time, self._cohort_fired, cohort)
            self._cohorts_by_time[time] = cohort
        cohort.members += 1
        return cohort

    def _leave_cohort(self, cohort: Optional[_Cohort]) -> None:
        if cohort is None:
            return
        cohort.members -= 1
        if cohort.members == 0:
            if not cohort.fired and cohort.handle is not None:
                cohort.handle.cancel()
                cohort.handle = None
            if self._cohorts_by_time.get(cohort.time) is cohort:
                del self._cohorts_by_time[cohort.time]

    def _cohort_fired(self, cohort: _Cohort) -> None:
        # Members stay pooled — the event only pins the boundary's place in
        # the global event order (and advances the clock on full drains).
        cohort.fired = True
        cohort.handle = None
        if self._cohorts_by_time.get(cohort.time) is cohort:
            del self._cohorts_by_time[cohort.time]

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------
    def _alloc_slot(self) -> int:
        if self._free:
            return self._free.pop()
        slot = len(self._servers)
        self._servers.append(None)
        self._captured_at.append(0.0)
        self._commit.append(NEVER)
        self._done.append(NEVER)
        self._level.append(0)
        self._core_dl.extend([NEVER] * self._w)
        self._pc6_dl.extend([NEVER] * self._s)
        self._commit_cohorts.append(None)
        self._done_cohorts.append(None)
        self._settle_cohorts.append(None)
        return slot

    # ------------------------------------------------------------------
    # Introspection (audits, benches, tests)
    # ------------------------------------------------------------------
    def iter_pooled(self) -> Iterator[Tuple[int, "Server"]]:
        """Yield (slot, server) for every occupied slot."""
        for slot, server in enumerate(self._servers):
            if server is not None:
                yield slot, server

    def slot_cohorts(self, slot: int) -> Tuple[Optional[_Cohort], ...]:
        return (
            self._commit_cohorts[slot],
            self._done_cohorts[slot],
            self._settle_cohorts[slot],
        )

    def slot_times(self, slot: int) -> Tuple[float, float, float]:
        return self._captured_at[slot], self._commit[slot], self._done[slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServerPool pooled={self.pooled_count} "
            f"captures={self.captures} materializations={self.materializations}>"
        )


def _stage_key(stage: Tuple[float, int, object]) -> Tuple[float, int]:
    return (stage[0], stage[1])
