"""Tests for arrival traces: I/O, rescaling, synthetic generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workload.trace import (
    ArrivalTrace,
    _inhomogeneous_poisson,
    synthesize_nlanr_trace,
    synthesize_wikipedia_trace,
)

#: Rates and spans that would hang synthesis: a NaN or infinite rate never
#: lets the arrival clock reach the end, nor does an infinite span.
BAD_VALUES = (math.nan, math.inf, 0.0, -1.0)


class TestArrivalTrace:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ArrivalTrace([2.0, 1.0])

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ArrivalTrace([-0.5, 1.0])

    def test_duration_and_len(self):
        trace = ArrivalTrace([1.0, 2.0, 7.5])
        assert len(trace) == 3
        assert trace.duration_s == 7.5

    def test_mean_rate(self):
        trace = ArrivalTrace([float(i) for i in range(1, 101)])
        assert trace.mean_rate() == pytest.approx(1.0)

    def test_mean_rate_needs_samples(self):
        with pytest.raises(ValueError):
            ArrivalTrace([1.0]).mean_rate()

    def test_rate_in_bins(self):
        trace = ArrivalTrace([0.1, 0.2, 0.3, 1.5])
        rates = trace.rate_in_bins(1.0)
        assert rates == [3.0, 1.0]

    def test_rate_in_bins_validates(self):
        with pytest.raises(ValueError):
            ArrivalTrace([1.0]).rate_in_bins(0.0)

    def test_scaled_to_rate_preserves_count(self):
        trace = ArrivalTrace([float(i) for i in range(1, 101)])
        scaled = trace.scaled_to_rate(10.0)
        assert len(scaled) == len(trace)
        assert scaled.mean_rate() == pytest.approx(10.0)

    def test_clipped(self):
        trace = ArrivalTrace([1.0, 2.0, 3.0, 4.0])
        assert len(trace.clipped(2.5)) == 2

    def test_file_roundtrip(self, tmp_path):
        trace = ArrivalTrace([0.25, 1.5, 3.75], name="t")
        path = tmp_path / "trace.txt"
        trace.to_file(path)
        loaded = ArrivalTrace.from_file(path)
        assert loaded.timestamps == pytest.approx(trace.timestamps)

    def test_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n1.5\n# mid\n2.5\n")
        loaded = ArrivalTrace.from_file(path)
        assert loaded.timestamps == [1.5, 2.5]

    def test_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1.5\nnot-a-number\n")
        with pytest.raises(ValueError, match="not a timestamp"):
            ArrivalTrace.from_file(path)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"trace\[1\]: timestamp is NaN"):
            ArrivalTrace([1.0, float("nan"), 2.0])

    def test_unsorted_error_names_offending_index(self):
        with pytest.raises(ValueError, match=r"trace\[2\]: timestamps not sorted"):
            ArrivalTrace([1.0, 5.0, 3.0])

    def test_file_errors_name_offending_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        # Line 1 is a comment, so the bad value sits on line 4.
        path.write_text("# header\n1.0\n2.0\n1.5\n")
        with pytest.raises(ValueError, match=r"trace\.txt:4: timestamps not sorted"):
            ArrivalTrace.from_file(path)
        path.write_text("# header\n1.0\nnan\n")
        with pytest.raises(ValueError, match=r"trace\.txt:3: timestamp is NaN"):
            ArrivalTrace.from_file(path)
        path.write_text("1.0\n-2.5\n")
        with pytest.raises(ValueError, match=r"trace\.txt:2: negative timestamp"):
            ArrivalTrace.from_file(path)


class TestWikipediaSynth:
    def test_mean_rate_near_target(self, rng):
        trace = synthesize_wikipedia_trace(
            rng, duration_s=400.0, mean_rate=50.0, day_length_s=100.0
        )
        assert trace.mean_rate() == pytest.approx(50.0, rel=0.2)

    def test_has_diurnal_swing(self, rng):
        trace = synthesize_wikipedia_trace(
            rng, duration_s=400.0, mean_rate=100.0, day_length_s=200.0,
            daily_amplitude=0.5, noise_amplitude=0.0, weekly_amplitude=0.0,
        )
        rates = trace.rate_in_bins(20.0)
        # Peak-to-trough swing should reflect the 0.5 amplitude.
        assert max(rates) > 1.5 * min(rates)

    def test_sorted_and_positive(self, rng):
        trace = synthesize_wikipedia_trace(rng, 100.0, 20.0, day_length_s=50.0)
        ts = trace.timestamps
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        assert all(t >= 0 for t in ts)

    def test_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            synthesize_wikipedia_trace(rng, 0.0, 10.0)
        with pytest.raises(ValueError):
            synthesize_wikipedia_trace(rng, 10.0, 0.0)

    @pytest.mark.timeout(2)
    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["duration_s", "mean_rate", "day_length_s"])
    def test_rejects_non_finite_or_non_positive_inputs(self, rng, arg, value):
        kwargs = {"duration_s": 100.0, "mean_rate": 10.0, "day_length_s": 50.0}
        kwargs[arg] = value
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            synthesize_wikipedia_trace(rng, **kwargs)
        assert rng.bit_generator.state == state  # raised before any draw

    @pytest.mark.timeout(2)
    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["max_rate", "duration_s"])
    def test_thinning_rejects_non_finite_or_non_positive_inputs(
        self, rng, arg, value
    ):
        kwargs = {"max_rate": 10.0, "duration_s": 100.0}
        kwargs[arg] = value
        with pytest.raises(ValueError):
            _inhomogeneous_poisson(rng, lambda t: 5.0, **kwargs)


class TestNlanrSynth:
    def test_mean_rate_near_target(self, rng):
        trace = synthesize_nlanr_trace(rng, duration_s=2000.0, mean_rate=30.0)
        assert trace.mean_rate() == pytest.approx(30.0, rel=0.25)

    def test_is_bursty(self, rng):
        trace = synthesize_nlanr_trace(
            rng, duration_s=2000.0, mean_rate=30.0, burst_rate_ratio=8.0
        )
        gaps = np.diff(trace.timestamps)
        assert gaps.std() / gaps.mean() > 1.1

    def test_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            synthesize_nlanr_trace(rng, 100.0, 10.0, burst_rate_ratio=1.0)
        with pytest.raises(ValueError):
            synthesize_nlanr_trace(rng, -1.0, 10.0)

    @pytest.mark.timeout(2)
    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize(
        "arg", ["duration_s", "mean_rate", "mean_burst_s", "mean_gap_s"]
    )
    def test_rejects_non_finite_or_non_positive_inputs(self, rng, arg, value):
        kwargs = {"duration_s": 100.0, "mean_rate": 10.0}
        kwargs[arg] = value
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            synthesize_nlanr_trace(rng, **kwargs)
        assert rng.bit_generator.state == state  # raised before any draw

    @pytest.mark.timeout(2)
    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_rejects_non_finite_burst_ratio(self, rng, ratio):
        with pytest.raises(ValueError):
            synthesize_nlanr_trace(rng, 100.0, 10.0, burst_rate_ratio=ratio)
