"""Tests for the seeded randomness substrate."""

from __future__ import annotations

import pytest

from repro.core.rng import RandomSource, exponential


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7).stream("arrivals")
        b = RandomSource(7).stream("arrivals")
        assert list(a.random(10)) == list(b.random(10))

    def test_different_names_differ(self):
        source = RandomSource(7)
        a = source.stream("arrivals")
        b = source.stream("service")
        assert list(a.random(10)) != list(b.random(10))

    def test_different_seeds_differ(self):
        a = RandomSource(1).stream("arrivals")
        b = RandomSource(2).stream("arrivals")
        assert list(a.random(10)) != list(b.random(10))

    def test_spawn_is_deterministic(self):
        a = RandomSource(7).spawn("child").stream("x")
        b = RandomSource(7).spawn("child").stream("x")
        assert list(a.random(5)) == list(b.random(5))

    def test_none_seed_defaults_to_zero(self):
        assert RandomSource(None).seed == 0

    def test_new_consumer_does_not_perturb_existing_streams(self):
        # Draws on a freshly derived stream (e.g. the fault injector's
        # "faults" stream) must leave every other stream's sequence intact.
        baseline_arrivals = list(RandomSource(7).stream("arrivals").random(10))
        baseline_service = list(RandomSource(7).stream("service").random(10))
        source = RandomSource(7)
        faults = source.stream("faults")
        faults.random(1000)  # a heavy fault-injection run
        assert list(source.stream("arrivals").random(10)) == baseline_arrivals
        assert list(source.stream("service").random(10)) == baseline_service

    def test_faults_stream_is_independent(self):
        source = RandomSource(7)
        assert list(source.stream("faults").random(10)) != list(
            source.stream("arrivals").random(10)
        )


class TestExponential:
    def test_rejects_nonpositive_rate(self, rng):
        with pytest.raises(ValueError):
            exponential(rng, 0.0)
        with pytest.raises(ValueError):
            exponential(rng, -1.0)
        # NaN fails the positivity check too: NumPy would draw NaN times.
        with pytest.raises(ValueError):
            exponential(rng, float("nan"))

    def test_mean_close_to_inverse_rate(self, rng):
        rate = 4.0
        samples = [exponential(rng, rate) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(1.0 / rate, rel=0.05)

    def test_always_positive(self, rng):
        assert all(exponential(rng, 100.0) > 0 for _ in range(1000))
