"""Job arrival processes: Poisson, 2-state MMPP, and trace replay.

The paper's utilization formula (§III-D) relates system utilization ρ to the
job arrival rate λ in a multi-core server farm::

    ρ = λ / (µ · nServers · nCores)

where µ is the per-core service rate.  :func:`arrival_rate_for_utilization`
implements it and every utilization-sweep experiment uses it.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.rng import exponential


def arrival_rate_for_utilization(
    utilization: float,
    mean_service_s: float,
    n_servers: int,
    n_cores: int,
) -> float:
    """Arrival rate λ (jobs/s) producing the target utilization ρ.

    Inverts ρ = λ / (µ · nServers · nCores) with µ = 1 / mean_service_s.
    """
    if not 0.0 < utilization:
        raise ValueError(f"utilization must be positive, got {utilization}")
    if mean_service_s <= 0:
        raise ValueError(f"mean service time must be positive, got {mean_service_s}")
    mu = 1.0 / mean_service_s
    return utilization * mu * n_servers * n_cores


class ArrivalProcess:
    """Iterator over absolute arrival timestamps (seconds)."""

    def arrivals(self) -> Iterator[float]:
        """Yield non-decreasing arrival times; may be infinite."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals: exponential inter-arrival times.

    Widely used to model data center workloads (§III-D, citing DreamWeaver
    and the dual-delay-timer study).
    """

    def __init__(self, rate_per_s: float, rng: np.random.Generator, start_time: float = 0.0):
        if not 0 < rate_per_s < math.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {rate_per_s}"
            )
        self.rate_per_s = rate_per_s
        self.rng = rng
        self.start_time = start_time

    def arrivals(self) -> Iterator[float]:
        # Checked here, not on the first draw: a generator body runs lazily.
        rate = self.rate_per_s
        if not rate > 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return _poisson_arrivals(self.start_time, self.rng, 1.0 / rate)


def _poisson_arrivals(t: float, rng: np.random.Generator, scale: float) -> Iterator[float]:
    """``t += Exp(rate)`` forever.  ``scale`` is ``1.0 / rate``, the same
    float :func:`exponential` hands to numpy on every draw."""
    while True:
        t += float(rng.exponential(scale))
        yield t


class MMPP2Process(ArrivalProcess):
    """2-state Markov-Modulated Poisson Process for bursty arrivals (§III-D).

    State ``h`` (bursty) produces Poisson arrivals at ``lambda_h``; state
    ``l`` at ``lambda_l``.  The hidden state is a continuous-time Markov
    chain with transition rates ``rate_h_to_l`` and ``rate_l_to_h``.
    Burstiness is tuned by the rate ratio ``Ra = lambda_h / lambda_l`` or by
    shrinking the fraction of time spent in the bursty state.
    """

    def __init__(
        self,
        lambda_h: float,
        lambda_l: float,
        rate_h_to_l: float,
        rate_l_to_h: float,
        rng: np.random.Generator,
        start_in_burst: bool = False,
        start_time: float = 0.0,
    ):
        if not (0 < lambda_h < math.inf and 0 < lambda_l < math.inf):
            raise ValueError(
                f"both arrival rates must be positive and finite, got "
                f"lambda_h={lambda_h}, lambda_l={lambda_l}"
            )
        if lambda_h < lambda_l:
            raise ValueError(
                f"lambda_h ({lambda_h}) should be the bursty (higher) rate; "
                f"got lambda_l={lambda_l}"
            )
        if not (0 < rate_h_to_l < math.inf and 0 < rate_l_to_h < math.inf):
            raise ValueError(
                f"state transition rates must be positive and finite, got "
                f"rate_h_to_l={rate_h_to_l}, rate_l_to_h={rate_l_to_h}"
            )
        self.lambda_h = lambda_h
        self.lambda_l = lambda_l
        self.rate_h_to_l = rate_h_to_l
        self.rate_l_to_h = rate_l_to_h
        self.rng = rng
        self.start_in_burst = start_in_burst
        self.start_time = start_time

    @property
    def burst_fraction(self) -> float:
        """Stationary fraction of time spent in the bursty state."""
        return self.rate_l_to_h / (self.rate_l_to_h + self.rate_h_to_l)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate."""
        p_h = self.burst_fraction
        return p_h * self.lambda_h + (1.0 - p_h) * self.lambda_l

    def arrivals(self) -> Iterator[float]:
        t = self.start_time
        bursty = self.start_in_burst
        while True:
            lam = self.lambda_h if bursty else self.lambda_l
            switch_rate = self.rate_h_to_l if bursty else self.rate_l_to_h
            dt_arrival = exponential(self.rng, lam)
            dt_switch = exponential(self.rng, switch_rate)
            if dt_arrival <= dt_switch:
                t += dt_arrival
                yield t
            else:
                # Memorylessness lets us resample the arrival clock after the
                # state switch without biasing the process.
                t += dt_switch
                bursty = not bursty

    @classmethod
    def for_mean_rate(
        cls,
        mean_rate: float,
        rate_ratio: float,
        burst_fraction: float,
        mean_state_duration_s: float,
        rng: np.random.Generator,
    ) -> "MMPP2Process":
        """Build an MMPP with a target average rate and burstiness knobs.

        Args:
            mean_rate: desired long-run arrival rate (jobs/s).
            rate_ratio: Ra = lambda_h / lambda_l (> 1).
            burst_fraction: stationary fraction of time in the bursty state.
            mean_state_duration_s: average sojourn per visit across both
                states, controlling how fast the process flips.
        """
        if rate_ratio <= 1:
            raise ValueError(f"rate_ratio must exceed 1, got {rate_ratio}")
        if not 0 < burst_fraction < 1:
            raise ValueError(f"burst_fraction must be in (0, 1), got {burst_fraction}")
        # mean_rate = p*Ra*lambda_l + (1-p)*lambda_l
        lambda_l = mean_rate / (burst_fraction * rate_ratio + (1 - burst_fraction))
        lambda_h = rate_ratio * lambda_l
        # Sojourn times: E[h] = 1/r_hl, E[l] = 1/r_lh with p = E[h]/(E[h]+E[l]).
        total = 2.0 * mean_state_duration_s
        mean_h = burst_fraction * total
        mean_l = (1 - burst_fraction) * total
        return cls(lambda_h, lambda_l, 1.0 / mean_h, 1.0 / mean_l, rng)


class TraceProcess(ArrivalProcess):
    """Replay absolute arrival timestamps from a trace."""

    def __init__(self, timestamps: Sequence[float]):
        ts = list(timestamps)
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("trace timestamps must be non-decreasing")
        if any(t < 0 for t in ts):
            raise ValueError("trace timestamps must be non-negative")
        self.timestamps = ts

    def arrivals(self) -> Iterator[float]:
        return iter(self.timestamps)

    def __len__(self) -> int:
        return len(self.timestamps)
