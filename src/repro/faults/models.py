"""Stochastic and scripted fault processes.

A fault model answers two questions for one component class: how long until
the next failure (time to failure, drawn when the component is healthy) and
how long the subsequent repair takes (time to repair).  Two stochastic models
are provided — the classic memoryless exponential process and a Weibull
process whose shape parameter captures infant-mortality (shape < 1) or
wear-out (shape > 1) behaviour — plus a deterministic trace schedule for
replaying scripted outages.

All stochastic draws come from the generator handed in by the caller (the
injector passes the shared ``"faults"`` stream of the run's
:class:`~repro.core.rng.RandomSource`), so fault sequences are reproducible
and never perturb arrival or service-time streams.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np


class FaultModel:
    """Interface: per-component failure/repair interval sampler."""

    def time_to_failure(self, rng: np.random.Generator) -> float:
        """Seconds of healthy operation before the next failure."""
        raise NotImplementedError

    def time_to_repair(self, rng: np.random.Generator) -> float:
        """Seconds of downtime before the component returns to service."""
        raise NotImplementedError


class ExponentialFaultModel(FaultModel):
    """Memoryless failures and repairs with the given MTBF/MTTR means."""

    def __init__(self, mtbf_s: float, mttr_s: float):
        if not mtbf_s > 0:
            raise ValueError(f"mtbf_s must be positive, got {mtbf_s}")
        if not mttr_s > 0:
            raise ValueError(f"mttr_s must be positive, got {mttr_s}")
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s

    def time_to_failure(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mtbf_s))

    def time_to_repair(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mttr_s))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExponentialFaultModel(mtbf={self.mtbf_s}, mttr={self.mttr_s})"


class WeibullFaultModel(FaultModel):
    """Weibull-distributed intervals parameterised by their *means*.

    The scale is derived so the distribution's mean equals the requested
    MTBF/MTTR: ``scale = mean / gamma(1 + 1/shape)``.  ``failure_shape > 1``
    models wear-out (hazard rises with uptime), ``< 1`` infant mortality,
    and ``= 1`` degenerates to the exponential model.
    """

    def __init__(
        self,
        mtbf_s: float,
        mttr_s: float,
        failure_shape: float = 1.5,
        repair_shape: float = 1.0,
    ):
        if not mtbf_s > 0:
            raise ValueError(f"mtbf_s must be positive, got {mtbf_s}")
        if not mttr_s > 0:
            raise ValueError(f"mttr_s must be positive, got {mttr_s}")
        if not (failure_shape > 0 and repair_shape > 0):
            raise ValueError("Weibull shapes must be positive")
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s
        self.failure_shape = failure_shape
        self.repair_shape = repair_shape
        self._failure_scale = mtbf_s / math.gamma(1.0 + 1.0 / failure_shape)
        self._repair_scale = mttr_s / math.gamma(1.0 + 1.0 / repair_shape)

    def time_to_failure(self, rng: np.random.Generator) -> float:
        return float(self._failure_scale * rng.weibull(self.failure_shape))

    def time_to_repair(self, rng: np.random.Generator) -> float:
        return float(self._repair_scale * rng.weibull(self.repair_shape))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeibullFaultModel(mtbf={self.mtbf_s}, mttr={self.mttr_s}, "
            f"shapes=({self.failure_shape}, {self.repair_shape}))"
        )


def make_fault_model(
    distribution: str,
    mtbf_s: float,
    mttr_s: float,
    failure_shape: float = 1.5,
    repair_shape: float = 1.0,
) -> FaultModel:
    """Build the fault model named by a :class:`~repro.core.config.FaultConfig`."""
    if distribution == "exponential":
        return ExponentialFaultModel(mtbf_s, mttr_s)
    if distribution == "weibull":
        return WeibullFaultModel(mtbf_s, mttr_s, failure_shape, repair_shape)
    raise ValueError(f"unknown fault distribution {distribution!r}")


class TraceFaultSchedule:
    """Deterministic, scripted fault events.

    Entries are ``(time_s, kind, target, action)`` tuples — the same shape as
    :class:`~repro.core.config.FaultConfig.trace` — where ``kind`` is
    ``"server"`` / ``"switch"`` / ``"link"``, ``target`` is a server id,
    switch name, or ``"u|v"`` link key, and ``action`` is ``"fail"`` or
    ``"repair"``.  Events are validated eagerly and sorted by time so the
    injector can schedule them directly.
    """

    KINDS = ("server", "switch", "link")
    ACTIONS = ("fail", "repair")

    def __init__(self, entries: Iterable[Sequence]):
        events: List[Tuple[float, str, str, str]] = []
        for entry in entries:
            if len(entry) != 4:
                raise ValueError(
                    f"trace entry must be (time_s, kind, target, action), got {entry!r}"
                )
            time_s, kind, target, action = entry
            time_s = float(time_s)
            if time_s < 0:
                raise ValueError(f"trace event time must be >= 0, got {time_s}")
            if kind not in self.KINDS:
                raise ValueError(f"unknown trace kind {kind!r}; expected {self.KINDS}")
            if action not in self.ACTIONS:
                raise ValueError(
                    f"unknown trace action {action!r}; expected {self.ACTIONS}"
                )
            events.append((time_s, str(kind), str(target), str(action)))
        self.events = sorted(events, key=lambda e: e[0])

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
