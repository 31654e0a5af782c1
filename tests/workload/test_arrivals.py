"""Tests for arrival processes: Poisson, MMPP-2, trace replay."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.workload.arrivals import (
    MMPP2Process,
    PoissonProcess,
    TraceProcess,
    arrival_rate_for_utilization,
)


#: Rates that would hang or poison a simulation: NumPy draws NaN gaps for
#: a NaN rate and 0.0 gaps for an infinite one, so the clock never advances.
BAD_RATES = (math.nan, math.inf, 0.0, -1.0)


def take(process, n):
    return list(itertools.islice(process.arrivals(), n))


class TestUtilizationFormula:
    def test_paper_formula(self):
        # rho = lambda / (mu * nServers * nCores)  =>  lambda = rho*mu*nS*nC
        rate = arrival_rate_for_utilization(0.3, 0.005, 50, 4)
        assert rate == pytest.approx(0.3 * 200 * 50 * 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            arrival_rate_for_utilization(0.0, 0.005, 1, 1)
        with pytest.raises(ValueError):
            arrival_rate_for_utilization(0.3, 0.0, 1, 1)


class TestPoisson:
    def test_rejects_nonpositive_rate(self, rng):
        with pytest.raises(ValueError):
            PoissonProcess(0.0, rng)

    @pytest.mark.timeout(2)
    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_rejects_non_finite_or_non_positive_rate(self, rng, rate):
        with pytest.raises(ValueError):
            PoissonProcess(rate, rng)

    def test_timestamps_increase(self, rng):
        times = take(PoissonProcess(100.0, rng), 1000)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_empirical_rate(self, rng):
        rate = 50.0
        times = take(PoissonProcess(rate, rng), 20000)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(rate, rel=0.05)

    def test_interarrival_cv_close_to_one(self, rng):
        """Exponential gaps have coefficient of variation 1."""
        times = np.array(take(PoissonProcess(10.0, rng), 20000))
        gaps = np.diff(times)
        cv = gaps.std() / gaps.mean()
        assert cv == pytest.approx(1.0, abs=0.05)

    def test_start_time_offset(self, rng):
        process = PoissonProcess(10.0, rng, start_time=100.0)
        assert take(process, 1)[0] > 100.0

    def test_deterministic_for_seed(self, rng_source):
        a = take(PoissonProcess(10.0, rng_source.stream("x")), 100)
        b = take(PoissonProcess(10.0, rng_source.stream("x")), 100)
        assert a == b


class TestMMPP2:
    def test_validates_rates(self, rng):
        with pytest.raises(ValueError):
            MMPP2Process(1.0, 2.0, 1.0, 1.0, rng)  # lambda_h < lambda_l
        with pytest.raises(ValueError):
            MMPP2Process(2.0, 0.0, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            MMPP2Process(2.0, 1.0, 0.0, 1.0, rng)

    @pytest.mark.timeout(2)
    @pytest.mark.parametrize("rate", BAD_RATES)
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_non_finite_or_non_positive_rates(self, rng, slot, rate):
        rates = [4.0, 2.0, 1.0, 1.0]  # lambda_h, lambda_l, h->l, l->h
        rates[slot] = rate
        with pytest.raises(ValueError):
            MMPP2Process(*rates, rng)

    def test_burst_fraction(self, rng):
        process = MMPP2Process(100.0, 10.0, rate_h_to_l=3.0, rate_l_to_h=1.0, rng=rng)
        assert process.burst_fraction == pytest.approx(0.25)

    def test_mean_rate_formula(self, rng):
        process = MMPP2Process(100.0, 10.0, 3.0, 1.0, rng)
        assert process.mean_rate == pytest.approx(0.25 * 100 + 0.75 * 10)

    def test_empirical_mean_rate(self, rng):
        process = MMPP2Process(200.0, 20.0, 1.0, 1.0, rng)
        times = take(process, 50000)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(process.mean_rate, rel=0.1)

    def test_more_bursty_than_poisson(self, rng_source):
        """MMPP inter-arrival CV exceeds the Poisson value of 1."""
        mmpp = MMPP2Process(500.0, 10.0, 2.0, 2.0, rng_source.stream("mmpp"))
        times = np.array(take(mmpp, 30000))
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() > 1.2

    def test_for_mean_rate_constructor(self, rng):
        process = MMPP2Process.for_mean_rate(
            mean_rate=100.0, rate_ratio=8.0, burst_fraction=0.2,
            mean_state_duration_s=1.0, rng=rng,
        )
        assert process.mean_rate == pytest.approx(100.0)
        assert process.lambda_h / process.lambda_l == pytest.approx(8.0)
        assert process.burst_fraction == pytest.approx(0.2)

    def test_for_mean_rate_validates(self, rng):
        with pytest.raises(ValueError):
            MMPP2Process.for_mean_rate(100.0, 0.5, 0.2, 1.0, rng)
        with pytest.raises(ValueError):
            MMPP2Process.for_mean_rate(100.0, 8.0, 1.5, 1.0, rng)

    def test_timestamps_increase(self, rng):
        times = take(MMPP2Process(100.0, 10.0, 5.0, 5.0, rng), 2000)
        assert all(b > a for a, b in zip(times, times[1:]))


class TestTraceProcess:
    def test_replays_exactly(self):
        process = TraceProcess([0.5, 1.0, 2.5])
        assert take(process, 10) == [0.5, 1.0, 2.5]

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TraceProcess([1.0, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceProcess([-1.0, 0.5])

    def test_len(self):
        assert len(TraceProcess([1.0, 2.0])) == 2
