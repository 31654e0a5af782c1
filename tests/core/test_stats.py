"""Tests for state trackers, energy accounts, latency collectors, samplers."""

from __future__ import annotations

import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stats
from repro.core.config import onoff_cloud_server
from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.core.stats import (
    CdfResult,
    EnergyAccount,
    LatencyCollector,
    StateTracker,
    TimeSeriesSampler,
)
from repro.experiments.common import build_farm, drive
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import PackingPolicy
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import web_search_profile


class TestStateTracker:
    def test_initial_state_accumulates(self):
        tracker = StateTracker("idle")
        assert tracker.residency(5.0) == {"idle": 5.0}

    def test_transition_splits_residency(self):
        tracker = StateTracker("idle")
        tracker.set_state("busy", 2.0)
        res = tracker.residency(5.0)
        assert res["idle"] == pytest.approx(2.0)
        assert res["busy"] == pytest.approx(3.0)

    def test_same_state_call_is_noop(self):
        tracker = StateTracker("idle")
        tracker.set_state("idle", 2.0)
        assert tracker.transition_count() == 0

    def test_transition_counts(self):
        tracker = StateTracker("a")
        tracker.set_state("b", 1.0)
        tracker.set_state("a", 2.0)
        tracker.set_state("b", 3.0)
        assert tracker.transition_count() == 3
        assert tracker.transition_count(src="a", dst="b") == 2
        assert tracker.transition_count(src="b") == 1
        assert tracker.transition_count(dst="b") == 2

    def test_time_backwards_raises(self):
        tracker = StateTracker("a")
        tracker.set_state("b", 5.0)
        with pytest.raises(ValueError):
            tracker.set_state("c", 4.0)

    def test_fractions_sum_to_one(self):
        tracker = StateTracker("a")
        tracker.set_state("b", 1.5)
        tracker.set_state("c", 4.0)
        fractions = tracker.residency_fractions(10.0)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_empty_at_zero_span(self):
        tracker = StateTracker("a")
        assert tracker.residency_fractions(0.0) == {}

    @given(
        times=st.lists(
            st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        states=st.lists(st.sampled_from("abcd"), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_residency_always_sums_to_elapsed(self, times, states):
        tracker = StateTracker("start")
        t = 0.0
        for dt, state in zip(times, states):
            t += dt
            tracker.set_state(state, t)
        horizon = t + 1.0
        assert sum(tracker.residency(horizon).values()) == pytest.approx(horizon)


class TestTrackerKeys:
    """Transition counts are keyed by interned plain strings, so a tracker
    dict never becomes tracked by the cyclic garbage collector (a fresh
    ``(src, dst)`` tuple key would leave it tracked for good)."""

    def test_tracker_dict_stays_untracked(self):
        tracker = StateTracker("gc-key-a")
        # Names built at run time, so no constant tuple is reused.
        a, b = "-".join(("gc", "key", "a")), "-".join(("gc", "key", "b"))
        for t, state in enumerate((b, a, b, "gc-key-c"), start=1):
            tracker.set_state(state, float(t))
        assert not gc.is_tracked(tracker._totals)
        assert tracker.transitions == {
            ("gc-key-a", "gc-key-b"): 2, ("gc-key-b", "gc-key-a"): 1,
            ("gc-key-b", "gc-key-c"): 1,
        }
        assert tracker.transition_count() == 4
        assert tracker.transition_count(src="gc-key-b") == 2
        assert tracker.transition_count(dst="gc-key-b") == 2
        assert tracker.transition_count(src="gc-key-a", dst="gc-key-b") == 2
        assert tracker.residency(5.0) == {
            "gc-key-a": 2.0, "gc-key-b": 2.0, "gc-key-c": 1.0,
        }

    def test_counts_survive_a_restore_into_a_fresh_key_table(self, monkeypatch):
        # A tracker unpickled in another process starts with an empty key
        # table; the pickled keys spell out their pairs.
        tracker = StateTracker("up")
        tracker.set_state("down", 1.0)
        tracker.set_state("up", 2.0)
        payload = pickle.dumps(tracker)
        monkeypatch.setattr(stats, "_TRANSITION_KEYS", {})
        restored = pickle.loads(payload)
        assert restored.transitions == tracker.transitions
        restored.set_state("down", 3.0)
        assert restored.transitions == {("up", "down"): 2, ("down", "up"): 1}
        assert restored.transition_count(dst="down") == 2

    def test_separator_in_a_state_name_is_refused(self):
        tracker = StateTracker("a")
        with pytest.raises(ValueError, match="may not contain"):
            tracker.set_state("b\x1fc", 1.0)
        assert tracker.state == "a"
        assert tracker.residency(2.0) == {"a": 2.0}

    def test_farm_trackers_stay_untracked_after_a_run(self):
        profile = web_search_profile()
        farm = build_farm(8, onoff_cloud_server(n_cores=2), policy=PackingPolicy(), seed=3)
        controller = DelayTimerController(farm.engine, 0.05)
        for server in farm.servers:
            server.attach_controller(controller)
        rng = RandomSource(3)
        arrivals = PoissonProcess(200.0, rng.stream("arrivals"))
        drive(farm, arrivals, profile.job_factory(rng.stream("service")),
              duration_s=2.0, audit="off")
        trackers = [s.residency for s in farm.servers]
        trackers += [p.tracker for s in farm.servers for p in s.processors]
        trackers += [c.tracker for s in farm.servers for c in s.all_cores()]
        assert sum(t.transition_count() for t in trackers) > 1000
        assert [t for t in trackers if gc.is_tracked(t._totals)] == []


class TestEnergyAccount:
    def test_constant_power_integration(self):
        account = EnergyAccount("cpu", initial_power_w=10.0)
        assert account.energy_j(5.0) == pytest.approx(50.0)

    def test_power_change_accrues_segments(self):
        account = EnergyAccount("cpu", initial_power_w=10.0)
        account.set_power(20.0, 2.0)
        account.set_power(0.0, 3.0)
        assert account.energy_j(10.0) == pytest.approx(10 * 2 + 20 * 1)

    def test_query_does_not_mutate(self):
        account = EnergyAccount("cpu", initial_power_w=5.0)
        assert account.energy_j(2.0) == pytest.approx(10.0)
        assert account.energy_j(4.0) == pytest.approx(20.0)

    def test_time_backwards_raises(self):
        account = EnergyAccount("cpu", initial_power_w=5.0)
        account.set_power(1.0, 5.0)
        with pytest.raises(ValueError):
            account.set_power(2.0, 4.0)

    @given(
        segments=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_energy_equals_sum_of_power_times_dt(self, segments):
        account = EnergyAccount("x", initial_power_w=0.0)
        t = 0.0
        expected = 0.0
        power = 0.0
        for dt, next_power in segments:
            expected += power * dt
            t += dt
            account.set_power(next_power, t)
            power = next_power
        assert account.energy_j(t) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestLatencyCollector:
    def test_mean(self):
        collector = LatencyCollector()
        for v in (1.0, 2.0, 3.0):
            collector.record(v)
        assert collector.mean() == pytest.approx(2.0)

    def test_empty_raises(self):
        collector = LatencyCollector()
        with pytest.raises(ValueError):
            collector.mean()
        with pytest.raises(ValueError):
            collector.percentile(50)
        with pytest.raises(ValueError):
            collector.cdf()

    def test_percentile_bounds(self):
        collector = LatencyCollector()
        collector.record(1.0)
        with pytest.raises(ValueError):
            collector.percentile(101)
        with pytest.raises(ValueError):
            collector.percentile(-1)

    def test_percentile_nearest_rank(self):
        collector = LatencyCollector()
        for v in range(1, 11):
            collector.record(float(v))
        assert collector.percentile(0) == 1.0
        assert collector.percentile(100) == 10.0
        assert collector.percentile(50) == 5.0
        assert collector.percentile(90) == 9.0

    def test_percentile_matches_numpy_on_large_sample(self, rng):
        collector = LatencyCollector()
        data = rng.exponential(1.0, size=5000)
        for v in data:
            collector.record(float(v))
        for p in (50, 90, 95, 99):
            ours = collector.percentile(p)
            numpy_pct = float(np.percentile(data, p))
            assert ours == pytest.approx(numpy_pct, rel=0.05)

    def test_cdf_monotone_and_complete(self):
        collector = LatencyCollector()
        for v in (3.0, 1.0, 2.0, 2.0):
            collector.record(v)
        cdf = collector.cdf()
        assert list(cdf.values) == sorted(cdf.values)
        assert cdf.probs[-1] == pytest.approx(1.0)
        assert cdf.quantile(0.5) == 2.0

    def test_cdf_shares_sorted_storage(self):
        # The CDF must not copy the sorted sample array (satellite of the
        # perf PR): `values` is the collector's own sorted storage.
        collector = LatencyCollector()
        for v in (3.0, 1.0, 2.0):
            collector.record(v)
        cdf = collector.cdf()
        assert cdf.values is collector._sorted_samples()

    def test_cdf_quantile_bounds(self):
        collector = LatencyCollector()
        collector.record(1.0)
        cdf = collector.cdf()
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_max(self):
        collector = LatencyCollector()
        for v in (3.0, 9.0, 1.0):
            collector.record(v)
        assert collector.max() == 9.0

    def test_record_after_query_updates(self):
        collector = LatencyCollector()
        collector.record(1.0)
        assert collector.percentile(100) == 1.0
        collector.record(5.0)
        assert collector.percentile(100) == 5.0


class TestTimeSeriesSampler:
    def test_samples_at_fixed_interval(self):
        engine = Engine()
        sampler = TimeSeriesSampler(engine, interval=1.0)
        series = sampler.add_probe("clock", lambda: engine.now)
        sampler.start(first_sample_at=1.0)
        engine.run(until=5.0)
        assert list(series.times) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(series.values) == list(series.times)

    def test_stop_halts_sampling(self):
        engine = Engine()
        sampler = TimeSeriesSampler(engine, interval=1.0)
        series = sampler.add_probe("x", lambda: 1.0)
        sampler.start(first_sample_at=1.0)
        engine.schedule(2.5, sampler.stop)
        engine.run(until=10.0)
        assert len(series) == 2

    def test_multiple_probes_share_clock(self):
        engine = Engine()
        sampler = TimeSeriesSampler(engine, interval=0.5)
        s1 = sampler.add_probe("a", lambda: 1.0)
        s2 = sampler.add_probe("b", lambda: 2.0)
        sampler.start()
        engine.run(until=2.0)
        assert s1.times == s2.times
        assert set(s2.values) == {2.0}

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(Engine(), interval=0.0)

    def test_series_mean(self):
        engine = Engine()
        sampler = TimeSeriesSampler(engine, interval=1.0)
        series = sampler.add_probe("x", lambda: 4.0)
        sampler.start(first_sample_at=1.0)
        engine.run(until=3.0)
        assert series.mean() == pytest.approx(4.0)


class TestLatencyCollectorEdgeCases:
    """The guards the telemetry snapshot layer relies on."""

    def test_empty_collector_raises_on_every_query(self):
        empty = LatencyCollector("lat")
        for query in (empty.mean, empty.max, empty.cdf):
            with pytest.raises(ValueError, match="no samples recorded"):
                query()
        with pytest.raises(ValueError, match="no samples recorded"):
            empty.percentile(50)

    def test_percentile_out_of_range(self):
        collector = LatencyCollector()
        collector.record(1.0)
        for p in (-0.1, 100.1, 1e9):
            with pytest.raises(ValueError, match=r"outside \[0, 100\]"):
                collector.percentile(p)

    def test_single_sample_extremes(self):
        collector = LatencyCollector()
        collector.record(3.5)
        assert collector.percentile(0) == 3.5
        assert collector.percentile(100) == 3.5
        assert collector.mean() == 3.5
        assert collector.max() == 3.5

    def test_percentile_zero_is_minimum(self):
        collector = LatencyCollector()
        collector.extend([5.0, 1.0, 3.0])
        assert collector.percentile(0) == 1.0
        assert collector.percentile(100) == 5.0


class TestCdfResultEdgeCases:
    def test_empty_cdf_raises(self):
        with pytest.raises(ValueError, match="empty CDF"):
            CdfResult(values=[]).quantile(0.5)

    def test_quantile_out_of_range(self):
        cdf = CdfResult(values=[1.0])
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                cdf.quantile(p)

    def test_single_sample_quantile_extremes(self):
        cdf = CdfResult(values=[2.0])
        assert cdf.quantile(0.0) == 2.0
        assert cdf.quantile(1.0) == 2.0

    def test_quantile_is_smallest_value_at_or_above_p(self):
        cdf = CdfResult(values=[1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.25) == 1.0
        assert cdf.quantile(0.26) == 2.0
        assert cdf.quantile(1.0) == 4.0
