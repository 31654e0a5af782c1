"""Unit tests for the fault interval models and trace schedules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults.models import (
    ExponentialFaultModel,
    TraceFaultSchedule,
    WeibullFaultModel,
    make_fault_model,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestExponentialFaultModel:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            ExponentialFaultModel(0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialFaultModel(1.0, -1.0)

    def test_means_match_parameters(self):
        model = ExponentialFaultModel(mtbf_s=50.0, mttr_s=4.0)
        rng = _rng(1)
        ttf = [model.time_to_failure(rng) for _ in range(20000)]
        ttr = [model.time_to_repair(rng) for _ in range(20000)]
        assert sum(ttf) / len(ttf) == pytest.approx(50.0, rel=0.05)
        assert sum(ttr) / len(ttr) == pytest.approx(4.0, rel=0.05)

    def test_deterministic_given_seeded_generator(self):
        model = ExponentialFaultModel(10.0, 1.0)
        a = [model.time_to_failure(_rng(7)) for _ in range(1)]
        b = [model.time_to_failure(_rng(7)) for _ in range(1)]
        assert a == b


class TestWeibullFaultModel:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            WeibullFaultModel(10.0, 1.0, failure_shape=0.0)
        with pytest.raises(ValueError):
            WeibullFaultModel(10.0, 1.0, repair_shape=-2.0)
        with pytest.raises(ValueError):
            WeibullFaultModel(10.0, 1.0, failure_shape=math.nan)

    def test_mean_matches_mtbf_for_any_shape(self):
        # scale = mean / gamma(1 + 1/shape) makes the distribution mean
        # equal the requested MTBF regardless of the shape parameter.
        for shape in (0.7, 1.0, 1.5, 3.0):
            model = WeibullFaultModel(30.0, 2.0, failure_shape=shape)
            rng = _rng(3)
            samples = [model.time_to_failure(rng) for _ in range(30000)]
            assert sum(samples) / len(samples) == pytest.approx(30.0, rel=0.05)

    def test_shape_one_degenerates_to_exponential_scale(self):
        model = WeibullFaultModel(10.0, 1.0, failure_shape=1.0)
        assert model._failure_scale == pytest.approx(10.0 / math.gamma(2.0))
        assert model._failure_scale == pytest.approx(10.0)


class TestFactory:
    @pytest.mark.parametrize("distribution", ["exponential", "weibull"])
    @pytest.mark.parametrize("mtbf, mttr", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_means(self, distribution, mtbf, mttr):
        with pytest.raises(ValueError):
            make_fault_model(distribution, mtbf, mttr)

    def test_builds_named_models(self):
        assert isinstance(make_fault_model("exponential", 1.0, 1.0), ExponentialFaultModel)
        assert isinstance(make_fault_model("weibull", 1.0, 1.0), WeibullFaultModel)

    def test_unknown_distribution_raises(self):
        with pytest.raises(ValueError):
            make_fault_model("lognormal", 1.0, 1.0)


class TestTraceFaultSchedule:
    def test_sorts_by_time(self):
        schedule = TraceFaultSchedule(
            [(5.0, "server", "1", "repair"), (2.0, "server", "1", "fail")]
        )
        assert [e[0] for e in schedule] == [2.0, 5.0]

    def test_accepts_json_style_lists(self):
        schedule = TraceFaultSchedule([[1, "link", "h0|sw0", "fail"]])
        assert schedule.events == [(1.0, "link", "h0|sw0", "fail")]

    def test_rejects_malformed_entries(self):
        with pytest.raises(ValueError):
            TraceFaultSchedule([(1.0, "server", "fail")])
        with pytest.raises(ValueError):
            TraceFaultSchedule([(-1.0, "server", "0", "fail")])
        with pytest.raises(ValueError):
            TraceFaultSchedule([(1.0, "rack", "0", "fail")])
        with pytest.raises(ValueError):
            TraceFaultSchedule([(1.0, "server", "0", "explode")])

    def test_len_and_empty(self):
        assert len(TraceFaultSchedule([])) == 0
        assert len(TraceFaultSchedule([(0.0, "switch", "sw0", "fail")])) == 1
