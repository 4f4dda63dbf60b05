"""Active-set non-negative least squares against scipy and KKT conditions."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from netfolio.nnls import NNLSConvergenceError, nnls


def kkt_violation(A, b, x):
    g = A.T @ (b - A @ x)
    active = x > 1e-10
    worst = 0.0
    if active.any():
        worst = max(worst, float(np.abs(g[active]).max()))
    if (~active).any():
        worst = max(worst, float(max(0.0, g[~active].max())))
    return worst


class TestNnls:
    def test_identity_clips_negatives(self):
        x, res = nnls(np.eye(3), np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 0.0, 3.0])
        assert res == pytest.approx(2.0)

    def test_exact_nonnegative_solution(self, rng):
        A = rng.normal(size=(20, 6))
        x_true = rng.uniform(0.5, 2.0, size=6)
        x, res = nnls(A, A @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-10)
        assert res < 1e-10

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_scipy(self, trial):
        rng = np.random.default_rng(900 + trial)
        m, n = int(rng.integers(5, 30)), int(rng.integers(2, 15))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x, res = nnls(A, b)
        x_ref, res_ref = scipy.optimize.nnls(A, b)
        assert res == pytest.approx(res_ref, abs=1e-8)
        np.testing.assert_allclose(x, x_ref, atol=1e-7)

    @pytest.mark.parametrize("trial", range(25))
    def test_kkt_conditions(self, trial):
        rng = np.random.default_rng(950 + trial)
        A = rng.normal(size=(int(rng.integers(10, 40)), int(rng.integers(3, 20))))
        b = rng.normal(size=A.shape[0])
        x, _ = nnls(A, b)
        assert (x >= 0).all()
        assert kkt_violation(A, b, x) < 1e-6

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(10, 5))
        b = rng.normal(size=10)
        with pytest.raises(NNLSConvergenceError):
            nnls(A, b, max_iter=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nnls(np.eye(3), np.zeros(4))


def degenerate_problem(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A small seeded NNLS problem of one degenerate kind."""
    rng = np.random.default_rng([DEGENERATE.index(kind), seed])
    m, n = int(rng.integers(3, 25)), int(rng.integers(2, 15))
    A, b = rng.normal(size=(m, n)), rng.normal(size=m)
    if kind == "duplicate_columns":
        src, dst = rng.integers(0, n, size=(2, int(rng.integers(1, n))))
        A[:, dst] = A[:, src] * rng.choice([1.0, 2.0, 0.5], size=len(dst))
    elif kind == "zero_column":
        A[:, rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = 0.0
    elif kind == "zero_b":
        b = np.zeros(m)
    elif kind == "integer_rank_deficient":
        r = int(rng.integers(1, max(2, min(m, n))))
        A = (rng.integers(-3, 4, size=(m, r)) @ rng.integers(-3, 4, size=(r, n))).astype(float)
        b = rng.integers(-5, 6, size=m).astype(float)
    elif kind == "fewer_rows":
        m = int(rng.integers(2, 8))
        A, b = rng.normal(size=(m, int(rng.integers(m + 1, 20)))), rng.normal(size=m)
    elif kind == "badly_scaled":
        A = A * np.logspace(-8, 8, n)
    return A, b


DEGENERATE = ("duplicate_columns", "zero_column", "zero_b", "integer_rank_deficient",
              "fewer_rows", "badly_scaled")


class TestDegenerateFuzz:
    """Rank-deficient, duplicate-column, zero and badly scaled inputs against
    scipy: no error escapes and the residual is never worse than scipy's."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kind", DEGENERATE)
    def test_no_worse_than_scipy(self, kind, seed):
        A, b = degenerate_problem(kind, seed)
        x, res = nnls(A, b)
        _, res_ref = scipy.optimize.nnls(A, b)
        assert np.isfinite(x).all() and (x >= 0).all()
        assert res == pytest.approx(float(np.linalg.norm(A @ x - b)), rel=1e-12, abs=1e-12)
        assert res <= res_ref * (1 + 1e-6) + 1e-9 * max(1.0, float(np.linalg.norm(b)))

    def test_zero_b_gives_zero(self):
        A, b = degenerate_problem("zero_b", 0)
        x, res = nnls(A, b)
        assert not x.any() and res == 0.0

    def test_duplicate_column_gets_no_weight(self):
        # Two copies of one column: the second copy depends on the first and
        # never enters, so no singular passive block is solved.
        a = np.array([1.0, 2.0, 3.0])
        x, res = nnls(np.column_stack([a, a]), 2.0 * a)
        np.testing.assert_allclose(x, [2.0, 0.0])
        assert res < 1e-12
