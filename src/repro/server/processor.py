"""A processor package: a set of cores plus package-level C-state control.

Package C6 ("shallow sleep" in §IV-C) is entered when every core has been in
core C6 for the configured package timer; it powers down the uncore (shared
caches, coherence fabric) for a few extra watts of savings at the cost of a
sub-millisecond exit latency paid by the next task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.engine import Engine, EventHandle
from repro.core.stats import StateTracker
from repro.core.config import ProcessorConfig
from repro.server.core_unit import Core
from repro.server.states import CoreState, PackageState

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server

# Enum members bound once (each ``Enum.MEMBER`` read is a Python-level call
# in CPython 3.11; see core_unit).
_ACTIVE, _C1 = CoreState.ACTIVE, CoreState.C1
_PC0, _PC6 = PackageState.PC0, PackageState.PC6


class Processor:
    """One socket's package: cores, package C-state, P-state (DVFS)."""

    __slots__ = (
        "engine", "config", "socket_index", "server_label", "allow_package_c6",
        "frequency_ghz", "_homogeneous", "_busy", "_state_mask", "_all_c6_mask",
        "cores", "package_state", "tracker", "_pc6_timer", "_active_w", "_c1_w",
        "_c6_w", "_uncore_pc0", "_uncore_pc6", "_cores_power_cache", "_server",
    )

    def __init__(
        self,
        engine: Engine,
        config: ProcessorConfig,
        socket_index: int = 0,
        server_label: str = "server",
        allow_package_c6: bool = True,
    ):
        self.engine = engine
        self.config = config
        self.socket_index = socket_index
        self.server_label = server_label
        self.allow_package_c6 = allow_package_c6
        self.frequency_ghz = config.frequency_ghz
        factors = config.core_speed_factors or (1.0,) * config.n_cores
        self._homogeneous = len(set(factors)) == 1
        #: Count of cores with a task; maintained by Core at every
        #: ``current_task`` mutation so load queries are O(sockets).
        self._busy = 0
        #: 2 bits per core (see ``core_unit._MASK_CODE``); cores start in C1.
        self._state_mask = 0
        self._all_c6_mask = 0
        for i in range(config.n_cores):
            self._state_mask |= 1 << (2 * i)
            self._all_c6_mask |= 2 << (2 * i)
        self.cores: List[Core] = [Core(self, i, factors[i]) for i in range(config.n_cores)]
        self.package_state = PackageState.PC0
        self.tracker = StateTracker(PackageState.PC0.value, engine.now)
        self._pc6_timer: Optional[EventHandle] = None
        self._refresh_power_cache()
        # The owning Server, which cores and this package report to; a
        # standalone processor reports to nobody.
        self._server: Optional["Server"] = None

    # ------------------------------------------------------------------
    # Dispatch support
    # ------------------------------------------------------------------
    def available_cores(self) -> List[Core]:
        """Cores that can accept a task right now, fastest first.

        Sorting by descending speed factor makes the local scheduler
        heterogeneity-aware for free: big cores are preferred when idle.
        """
        free = [c for c in self.cores if c.available]
        free.sort(key=lambda c: (-c.speed_factor, c.index))
        return free

    def first_available_core(self) -> Optional[Core]:
        """The best single free core, or None — avoids the list+sort when
        cores are homogeneous (lowest free index is then already the best)."""
        if self._homogeneous:
            for c in self.cores:
                if c.current_task is None:
                    return c
            return None
        free = self.available_cores()
        return free[0] if free else None

    def prepare_dispatch(self) -> float:
        """Exit package C6 if needed; returns the exit latency to charge.

        Called by the local scheduler just before assigning a task to one of
        this package's cores.
        """
        self._cancel_pc6_timer()
        if self.package_state is _PC6:
            self._set_package_state(_PC0)
            return self.config.package_profile.pc6_exit_latency_s
        return 0.0

    def set_frequency(self, frequency_ghz: float) -> None:
        """Change the package P-state; applies to subsequently started tasks."""
        available = self.config.available_frequencies_ghz
        if available and frequency_ghz not in available:
            raise ValueError(
                f"frequency {frequency_ghz} GHz not among available P-states {available}"
            )
        # A thermal throttle (or any governor) may retune a pooled-idle
        # server; the accounting below must run on exact per-server state.
        if self._server is not None:
            self._server.ensure_materialized()
        self.frequency_ghz = frequency_ghz
        self._refresh_power_cache()
        if self._server is not None:
            # Repoint (don't clear: the map is shared with same-frequency
            # peers) the server-level component cache at the new P-state's.
            self._server._repoint_cpower_cache()
        self._notify_power_change()

    # ------------------------------------------------------------------
    # System sleep coordination (driven by the Server)
    # ------------------------------------------------------------------
    def force_sleep(self) -> None:
        """Push all (idle) cores to C6 and the package to PC6 on S3/S5 entry."""
        for core in self.cores:
            if core.busy:
                raise RuntimeError(f"cannot sleep {self.server_label}: {core} is busy")
            core.force_c6()
        self._cancel_pc6_timer()
        self._set_package_state(_PC6)

    def wake_from_sleep(self) -> None:
        """Return package and cores to the working state after system wake."""
        self._set_package_state(_PC0)
        for core in self.cores:
            core.wake_to_idle()

    # ------------------------------------------------------------------
    # Core callbacks
    # ------------------------------------------------------------------
    def on_core_state_change(self) -> None:
        """A core changed C-state: drive the package C-state, then the
        server's energy and residency accounts."""
        if self._state_mask == self._all_c6_mask:
            self._arm_pc6_timer()
        else:
            self._cancel_pc6_timer()
            if self.package_state is _PC6:
                self._set_package_state(_PC0)
        self._notify_power_change()

    # ------------------------------------------------------------------
    # Pool fast-path support (repro.server.pool)
    # ------------------------------------------------------------------
    def detach_pc6_deadline(self) -> Optional[float]:
        """Cancel the pending package-C6 timer and return its deadline.

        Returns ``-inf`` if the package is already in PC6 and None if no timer
        is pending (the pool derives the deadline from the core cascade).
        """
        if self.package_state is _PC6:
            return float("-inf")
        handle = self._pc6_timer
        if handle is not None and handle.pending:
            deadline = handle.time
            handle.cancel()
            self._pc6_timer = None
            return deadline
        return None

    def restore_pc6_deadline(self, deadline: float) -> None:
        """Re-arm the package-C6 timer at its original absolute deadline."""
        self._cancel_pc6_timer()
        self._pc6_timer = self.engine.schedule_at(deadline, self._enter_pc6)

    # ------------------------------------------------------------------
    # Package C6 timer
    # ------------------------------------------------------------------
    def _arm_pc6_timer(self) -> None:
        if not self.allow_package_c6 or self.package_state is _PC6:
            return
        if self._pc6_timer is not None and self._pc6_timer.pending:
            return
        self._pc6_timer = self.engine.schedule(self.config.package_c6_timer_s, self._enter_pc6)

    def _cancel_pc6_timer(self) -> None:
        # cancel() is a no-op on a fired or cancelled handle.
        if self._pc6_timer is not None:
            self._pc6_timer.cancel()
            self._pc6_timer = None

    def _enter_pc6(self) -> None:
        self._pc6_timer = None
        if self._state_mask == self._all_c6_mask:
            self._set_package_state(_PC6)

    def _set_package_state(self, state: PackageState) -> None:
        if state is self.package_state:
            return
        self.package_state = state
        self.tracker.set_state(state._value_, self.engine._now)
        self._notify_power_change()

    def _notify_power_change(self) -> None:
        """Bring the owning server's energy and residency accounts up to
        date (unless it holds notifications during a dispatch)."""
        server = self._server
        if server is not None and not server._notify_held:
            server._update_accounts(self.engine._now)

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def _refresh_power_cache(self) -> None:
        """Precompute per-C-state core powers (the active draw depends on the
        current P-state); recomputed on every frequency change so the cached
        floats are exactly what :meth:`Core.power_w` would return."""
        profile = self.config.core_profile
        ratio = self.frequency_ghz / self.config.nominal_frequency_ghz
        self._active_w = profile.active_w * ratio**profile.dvfs_exponent
        self._c1_w = profile.c1_w
        self._c6_w = profile.c6_w
        pkg = self.config.package_profile
        self._uncore_pc0 = pkg.pc0_w
        self._uncore_pc6 = pkg.pc6_w
        # Summed core power per observed state mask; entries are computed by
        # the same index-ordered loop, so cached floats are bit-identical to
        # a fresh accumulation.  The map is shared by every processor built
        # from this config object running at the same P-state (identical
        # inputs produce identical floats), so a homogeneous farm warms it
        # once instead of once per socket; a P-state change simply points at
        # the new frequency's map.
        shared = self.config.__dict__.setdefault("_mask_power_caches", {})
        self._cores_power_cache: dict = shared.setdefault(self.frequency_ghz, {})

    def power_w(self) -> float:
        """Instantaneous package power: uncore plus every core.

        Explicit accumulation (matching the former ``sum(genexpr)`` order
        exactly) over cached per-state powers: this is the farm hot path's
        innermost loop.
        """
        uncore = self._uncore_pc6 if self.package_state is _PC6 else self._uncore_pc0
        total = self._cores_power_cache.get(self._state_mask)
        if total is None:
            active_w, c1_w, c6_w = self._active_w, self._c1_w, self._c6_w
            total = 0
            for core in self.cores:
                state = core.state
                total = total + (
                    active_w if state is _ACTIVE else c1_w if state is _C1 else c6_w
                )
            self._cores_power_cache[self._state_mask] = total
        return uncore + total

    @property
    def busy_core_count(self) -> int:
        """Number of cores currently executing a task."""
        return self._busy

    def __repr__(self) -> str:
        return (
            f"<Processor {self.server_label}/s{self.socket_index} "
            f"{self.package_state.value} busy={self.busy_core_count}/{len(self.cores)}>"
        )
