"""Tests for the shared statistics helpers."""

import pytest

from repro.analysis import empirical_cdf, percentile
from repro.errors import ConfigurationError


class TestCdf:
    def test_sorted_and_normalised(self):
        cdf = empirical_cdf([0.5, 0.1, 0.9])
        assert [v for v, _ in cdf] == [0.1, 0.5, 0.9]
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_empty(self):
        assert empirical_cdf([]) == []

    def test_duplicates_keep_count(self):
        cdf = empirical_cdf([1.0, 1.0])
        assert cdf == [(1.0, 0.5), (1.0, 1.0)]


class TestPercentile:
    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_endpoints(self):
        samples = [3.0, 1.0, 2.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 3.0

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)
