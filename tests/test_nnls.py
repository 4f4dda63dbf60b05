"""Active-set non-negative least squares against scipy and KKT conditions."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from netfolio.nnls import NNLSConvergenceError, PassiveFactor, nnls


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


class TestPassiveFactor:
    """The bordered and column-deleted inverse factor against a fresh
    Cholesky factor of the same scaled passive block."""

    @staticmethod
    def assert_fresh(factor, gram, solve=True):
        block = gram[np.ix_(factor.cols, factor.cols)]
        scale = 1.0 / np.sqrt(np.diag(block))
        np.testing.assert_array_equal(factor.scale, scale)
        if factor.k:
            chol = np.linalg.cholesky(block * scale[:, None] * scale)
            np.testing.assert_allclose(np.linalg.inv(factor.inverse), chol, rtol=0, atol=1e-10)
        if factor.k and solve:
            rhs = np.arange(1.0, factor.k + 1)
            np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(block, rhs),
                                       rtol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_border_and_delete_match_cholesky(self, seed):
        rng = np.random.default_rng(1700 + seed)
        n = 40
        A = rng.normal(size=(80, n)) * rng.uniform(0.05, 20.0, size=n)
        gram = A.T @ A
        factor = PassiveFactor(capacity=2)  # grows while bordering
        for _ in range(150):
            if factor.k and (factor.k == n or rng.random() < 0.4):
                factor.delete(int(rng.integers(factor.k)))
            else:
                j = int(rng.choice(np.setdiff1d(np.arange(n), factor.cols)))
                assert factor.border(j, gram[np.append(factor.cols, j), j])
            self.assert_fresh(factor, gram)

    @pytest.mark.parametrize("delta,dependent", [(0.0, True), (1e-7, True), (1e-5, False)])
    def test_dependent_column_not_bordered(self, delta, dependent):
        # c = 2a - b + delta * (a x b): its squared pivot after a and b is
        # 27/62 delta², so 1e-7 falls below 1e3 eps ~ 2.2e-13 and 1e-5 does not.
        a, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
        A = np.column_stack([a, b, 2.0 * a - b + delta * np.cross(a, b), np.zeros(3)])
        gram = A.T @ A
        factor = PassiveFactor()
        for j in (0, 1):
            assert factor.border(j, gram[np.append(factor.cols, j), j])
        before = factor.inverse.copy()
        assert not factor.border(3, gram[np.append(factor.cols, 3), 3])  # a zero column
        assert factor.border(2, gram[np.append(factor.cols, 2), 2]) is not dependent
        assert factor.cols.tolist() == ([0, 1] if dependent else [0, 1, 2])
        if dependent:
            np.testing.assert_array_equal(factor.inverse, before)
        else:  # cond ~ 1e11: the factor matches, a solve need not to 1e-9
            self.assert_fresh(factor, gram, solve=False)


def test_two_columns_leave_in_one_step():
    # Columns 0 and 1 mirror each other, so both reach zero at the same step
    # once column 2 enters, and both leave the passive factor together.
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 1.0], [3.0, 1.0, 1.0]])
    b = np.array([6.0, 6.0, 4.0, 4.0])
    x, res = nnls(A, b)
    np.testing.assert_allclose(x, [0.0, 0.0, 5.0], atol=1e-12)
    assert res == pytest.approx(2.0)


def test_least_norm_fallback_solves_the_passive_block(monkeypatch):
    # Every passive block goes through the singular-block fallback.
    monkeypatch.setattr(PassiveFactor, "singular", lambda self: True)
    rng = np.random.default_rng(31)
    A, b = rng.normal(size=(20, 8)), rng.normal(size=20)
    x, res = nnls(A, b)
    x_ref, res_ref = scipy.optimize.nnls(A, b)
    np.testing.assert_allclose(x, x_ref, atol=1e-8)
    assert res == pytest.approx(res_ref, abs=1e-8)
