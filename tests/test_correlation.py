"""Pearson correlation and the ultrametric transform."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfolio.correlation import (
    CorrelationError,
    CorrelationMatrix,
    DistanceMatrix,
    pearson_correlation,
    ultrametric_distance,
)


class TestPearson:
    def test_self_correlation_is_exactly_one(self, rng):
        x = rng.normal(size=50)
        corr = pearson_correlation(np.column_stack([x, x + 0.0]), ("A", "B"))
        assert corr.rho[0, 0] == 1.0
        assert corr.rho[0, 1] == 1.0

    def test_sign_flip(self, rng):
        x = rng.normal(size=50)
        corr = pearson_correlation(np.column_stack([x, -x]), ("A", "B"))
        assert corr.rho[0, 1] == pytest.approx(-1.0)

    def test_hand_computed_point_eight(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        corr = pearson_correlation(np.column_stack([x, y]), ("A", "B"))
        assert corr.rho[0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_names_ticker(self):
        returns = np.column_stack([np.arange(5.0), np.full(5, 1.0)])
        with pytest.raises(CorrelationError, match="FLAT"):
            pearson_correlation(returns, ("OK", "FLAT"))

    def test_too_few_observations(self):
        with pytest.raises(CorrelationError, match="at least 3"):
            pearson_correlation(np.ones((2, 2)), ("A", "B"))


class TestUltrametric:
    def test_perfect_correlation_zero_distance(self):
        corr = CorrelationMatrix(("A", "B"), np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.all(ultrametric_distance(corr).d == 0.0)

    def test_zero_correlation_root_two(self):
        corr = CorrelationMatrix(("A", "B"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert ultrametric_distance(corr).d[0, 1] == pytest.approx(math.sqrt(2.0))

    def test_reference_boa_jpm_entry(self):
        corr = CorrelationMatrix(("A", "B"), np.array([[1.0, 0.696], [0.696, 1.0]]))
        d = ultrametric_distance(corr).d[0, 1]
        assert d == pytest.approx(0.77974, abs=5e-6)
        assert abs(d - 0.779) < 1e-3

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    def test_round_trip_inverse(self, rhos):
        n = len(rhos) + 1
        rho = np.eye(n)
        for i, r in enumerate(rhos):
            rho[0, i + 1] = rho[i + 1, 0] = r
        corr = CorrelationMatrix(tuple(f"T{i}" for i in range(n)), rho)
        d = ultrametric_distance(corr).d
        back = 1.0 - d**2 / 2.0
        assert np.allclose(back, rho, atol=1e-12)

    def test_unknown_ticker_named(self):
        dist = ultrametric_distance(CorrelationMatrix(("A", "B"), np.eye(2)))
        with pytest.raises(CorrelationError, match="unknown ticker 'ZZZ'"):
            dist.ticker_index("ZZZ")

    def test_ordering_reversed(self, rng):
        rho_ab, rho_ac = 0.9, 0.2
        rho = np.array([[1.0, rho_ab, rho_ac], [rho_ab, 1.0, 0.5], [rho_ac, 0.5, 1.0]])
        d = ultrametric_distance(CorrelationMatrix(("A", "B", "C"), rho)).d
        assert d[0, 1] < d[0, 2]

