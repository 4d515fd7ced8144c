"""The benchmark's own arithmetic: percentile choice, spreads,
fingerprints and failed_share."""

import math
import statistics

import numpy as np
import pytest

from perfbench import stats


class TestPercentileChoice:
    @pytest.mark.parametrize("n, q, beyond", [
        (200, 95.0, 10), (199, 95.0, 9), (1000, 99.0, 10), (999, 99.0, 9),
        (20, 50.0, 10), (10000, 99.9, 10), (1000, 99.9, 1), (0, 50.0, 0)])
    def test_samples_beyond(self, n, q, beyond):
        assert stats.samples_beyond(n, q) == beyond

    @pytest.mark.parametrize("q, n", [(50.0, 20), (95.0, 200),
                                      (99.0, 1000), (99.9, 10000)])
    def test_min_samples_for(self, q, n):
        assert stats.min_samples_for(q) == n
        assert stats.samples_beyond(n - 1, q) < stats.MIN_BEYOND
        assert stats.samples_beyond(n, q) == stats.MIN_BEYOND

    def test_supported_percentile_needs_ten_beyond(self):
        xs = [float(i) for i in range(200)]
        assert stats.supported_percentile(xs, 95.0) == \
            stats.percentile(xs, 95.0)
        assert stats.supported_percentile(xs[:199], 95.0) is None
        assert stats.supported_percentile(xs[:199], 90.0) is not None

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stats.samples_beyond(10, 101.0)
        with pytest.raises(ValueError):
            stats.samples_beyond(-1, 50.0)


class TestPercentile:
    @pytest.mark.parametrize("q", [0.0, 12.5, 50.0, 95.0, 99.0, 100.0])
    def test_matches_numpy_linear(self, q):
        xs = np.random.default_rng(3).exponential(size=257)
        assert stats.percentile(xs.tolist(), q) == pytest.approx(
            float(np.percentile(xs, q)), rel=1e-12, abs=0.0)

    def test_interpolates(self):
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)


class TestQuartileSpread:
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert stats.quartile_spread(values) == (q3 - q1) / med

    def test_identical_values_have_no_spread(self):
        assert stats.quartile_spread([2.0] * 10) == 0.0

    def test_zero_median_raises(self):
        with pytest.raises(ValueError):
            stats.quartile_spread([0.0] * 10)


class TestFailedShare:
    def test_share(self):
        assert stats.failed_share(4, 1) == 0.25
        assert stats.failed_share(1024, 0) == 0.0
        assert stats.failed_share(3, 3) == 1.0

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            stats.failed_share(attempted, failed)


class TestFingerprint:
    def test_stable_under_dict_order(self):
        a = {"x": 1.5, "y": [1, 2], "z": {"b": 2, "a": 1}}
        b = {"z": {"a": 1, "b": 2}, "y": [1, 2], "x": 1.5}
        assert stats.fingerprint(a) == stats.fingerprint(b)

    def test_numpy_values_hash_like_python_values(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        assert stats.fingerprint([arr, np.float64(0.5)]) == \
            stats.fingerprint([[1, 2, 3], 0.5])

    def test_sees_one_ulp(self):
        x = 0.1 + 0.2
        assert stats.fingerprint([x]) != stats.fingerprint(
            [math.nextafter(x, 1.0)])
        assert stats.fingerprint([0.0]) != stats.fingerprint([-0.0])

    def test_types_are_not_conflated(self):
        assert stats.fingerprint([1]) != stats.fingerprint([1.0])
        assert stats.fingerprint(["1"]) != stats.fingerprint([1])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stats.fingerprint([object()])
