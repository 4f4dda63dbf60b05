"""Active-set non-negative least squares against scipy and KKT conditions,
driven on dense matrices through ``dense_nnls`` and on the Neighbor-Net
golden cases through the split operators, from cold and warm starts."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.optimize

from netfolio.neighbor_net import SplitOperators, fit_split_weights
from netfolio import nnls
from netfolio.nnls import NNLSConvergenceError, nnls_gram
from nn_reference import split_design_matrix
from test_golden import NN_CASES, NN_FILE, nn_distance

FULL_RANK = "depends on the passive columns"


def dense_nnls(A: np.ndarray, b: np.ndarray, max_iter: int | None = None,
               start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """``nnls_gram`` on a dense A: min_x ||A x - b||_2 subject to x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    gram, n = A.T @ A, A.shape[1]
    return nnls_gram(lambda rows, cols: gram[np.ix_(rows, cols)], lambda x: A @ x,
                     lambda y: A.T @ y, b, 10 * n * n if max_iter is None else max_iter, start)


def warm_starts(x_cold: np.ndarray, seed: int) -> dict[str, np.ndarray]:
    """Start sets for a problem whose cold-start optimum is ``x_cold``: none,
    every column, a random subset, and the columns the optimum leaves at 0."""
    n, rng = x_cold.size, np.random.default_rng([77, seed])
    return {"empty": np.arange(0), "all": np.arange(n),
            "random": np.flatnonzero(rng.random(n) < rng.uniform()),
            "complement": np.flatnonzero(x_cold == 0.0)}


def assert_no_worse_than_scipy(A, b, x, res, res_ref) -> None:
    assert np.isfinite(x).all() and (x >= 0).all()
    assert res == pytest.approx(float(np.linalg.norm(A @ x - b)), rel=1e-12, abs=1e-12)
    assert res <= res_ref * (1 + 1e-6) + 1e-9 * max(1.0, float(np.linalg.norm(b)))


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
        x, res = dense_nnls(np.eye(3), np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 0.0, 3.0])
        assert res == pytest.approx(2.0)

    def test_exact_nonnegative_solution(self, rng):
        A = rng.normal(size=(20, 6))
        x_true = rng.uniform(0.5, 2.0, size=6)
        x, res = dense_nnls(A, A @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-10)
        assert res < 1e-10

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_scipy(self, trial):
        rng = np.random.default_rng(900 + trial)
        m, n = int(rng.integers(5, 30)), int(rng.integers(2, 15))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x, res = dense_nnls(A, b)
        x_ref, res_ref = scipy.optimize.nnls(A, b)
        assert res == pytest.approx(res_ref, abs=1e-8)
        if m >= n:
            np.testing.assert_allclose(x, x_ref, atol=1e-7)
        else:  # a wide A fits b at many vertices: both solvers reach residual ~0
            assert kkt_violation(A, b, x) < 1e-6

    @pytest.mark.parametrize("trial", range(25))
    def test_kkt_conditions(self, trial):
        rng = np.random.default_rng(950 + trial)
        A = rng.normal(size=(int(rng.integers(10, 40)), int(rng.integers(3, 20))))
        b = rng.normal(size=A.shape[0])
        x, _ = dense_nnls(A, b)
        assert (x >= 0).all()
        assert kkt_violation(A, b, x) < 1e-6

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(10, 5))
        b = rng.normal(size=10)
        with pytest.raises(NNLSConvergenceError):
            dense_nnls(A, b, max_iter=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_nnls(np.eye(3), np.zeros(4))


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
    elif kind == "ill_conditioned":  # singular values from 1 down to 1e-4..1e-12
        m = max(m, n)
        u, v = np.linalg.qr(rng.normal(size=(m, n)))[0], np.linalg.qr(rng.normal(size=(n, n)))[0]
        A, b = (u * np.logspace(0, -int(rng.integers(4, 13)), n)) @ v.T, rng.normal(size=m)
    return A, b


DEGENERATE = ("duplicate_columns", "zero_column", "zero_b", "integer_rank_deficient",
              "fewer_rows", "badly_scaled", "ill_conditioned")


class TestDegenerateFuzz:
    """Rank-deficient, duplicate-column, zero, badly scaled and ill-conditioned
    inputs against scipy: either a column that enters (or starts) dependent
    and the solver raises the full-rank error, or the residual is never worse
    than scipy's. Every warm start that returns reaches the cold start's
    residual; where A has full column rank and cond(A) <= 1e3 the optimum is
    unique and the normal equations hold it to ~eps·cond², so x matches too."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kind", DEGENERATE)
    def test_no_worse_than_scipy(self, kind, seed):
        A, b = degenerate_problem(kind, seed)
        try:
            x_cold, res_cold = dense_nnls(A, b)
        except ValueError as exc:
            assert FULL_RANK in str(exc)
            return
        _, res_ref = scipy.optimize.nnls(A, b)
        assert_no_worse_than_scipy(A, b, x_cold, res_cold, res_ref)
        unique = A.shape[0] >= A.shape[1] and np.linalg.cond(A) <= 1e3
        for name, start in warm_starts(x_cold, seed).items():
            try:
                x, res = dense_nnls(A, b, start=start)
            except ValueError as exc:  # the start holds dependent columns
                assert FULL_RANK in str(exc) and name != "empty", name
                continue
            assert_no_worse_than_scipy(A, b, x, res, res_ref)
            assert res == pytest.approx(res_cold, rel=1e-12, abs=1e-12), name
            if unique:
                np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-10, err_msg=name)

    def test_zero_b_gives_zero(self):
        A, b = degenerate_problem("zero_b", 0)
        x, res = dense_nnls(A, b)
        assert not x.any() and res == 0.0

    def test_duplicate_column_gets_no_weight(self):
        # Two copies of one column enter in one step; the copy, dependent and
        # not the step's first entering column, waits, and once the first is
        # passive its gradient is zero, so it never enters and nothing raises.
        a = np.array([1.0, 2.0, 3.0])
        x, res = dense_nnls(np.column_stack([a, a]), 2.0 * a)
        np.testing.assert_allclose(x, [2.0, 0.0])
        assert res < 1e-12
        # A copy tilted by 5e-9·v (v ⟂ a) enters first and column 0 waits; it
        # keeps a gradient above tol, enters first at the next step while its
        # squared pivot (~5e-14) is below DEPENDENT, and the solver raises,
        # naming it.
        v = np.array([100.0, 100.0, -100.0])
        with pytest.raises(ValueError, match=f"NNLS column 0 {FULL_RANK}"):
            dense_nnls(np.column_stack([a, a + 5e-9 * v]), 2.0 * a + 5e-9 * v)


def test_dependent_entering_column_waits():
    # A cold solve enters both copies of a in its first step; the copy waits
    # instead of raising. In a start set both copies are firm, and the copy
    # raises.
    a = np.array([1.0, 2.0, 3.0])
    A = np.column_stack([a, a])
    gram, rows = A.T @ A, []
    x, res = nnls_gram(lambda r, c: rows.append(list(r)) or gram[np.ix_(r, c)],
                       lambda x: A @ x, lambda y: A.T @ y, 2.0 * a, 10 * 2 * 2)
    assert rows == [[], [0, 1]]
    np.testing.assert_allclose(x, [2.0, 0.0])
    assert res < 1e-12
    with pytest.raises(ValueError, match=f"NNLS column 1 {FULL_RANK}"):
        dense_nnls(A, 2.0 * a, start=np.arange(2))


@pytest.mark.parametrize("delta,dependent",
                         [(0.0, True), (1e-7, True), (1e-5, True), (1e-3, False)])
def test_dependent_start_column_named(delta, dependent):
    # c = 2a - b + delta * (a x b): its squared pivot after a and b is
    # 27/62 delta², so 1e-5 falls below sqrt(eps) ~ 1.5e-8 and 1e-3 does not.
    a, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
    A = np.column_stack([a, b, 2.0 * a - b + delta * np.cross(a, b), np.zeros(3)])
    rhs = A[:, :3] @ np.ones(3)
    with pytest.raises(ValueError, match=r"NNLS column 3 .*\(squared pivot 0\)"):
        dense_nnls(A, rhs, start=np.array([0, 1, 3]))  # a zero column
    if dependent:
        with pytest.raises(ValueError, match=f"NNLS column 2 {FULL_RANK}"):
            dense_nnls(A, rhs, start=np.arange(3))
    else:  # cond ~ 1e7 for the Gram block: the solve keeps about 9 digits
        x, res = dense_nnls(A, rhs, start=np.arange(3))
        np.testing.assert_allclose(x, [1.0, 1.0, 1.0, 0.0], rtol=0, atol=1e-6)
        assert res < 1e-9


@pytest.mark.parametrize("case", range(NN_CASES))
def test_split_fit_start_changes_only_the_path(case):
    # The circular split matrix is square and invertible, so every start set
    # must reach the one optimum: the cold x within 1e-10, inside scipy's bound.
    dist = nn_distance(case)
    cycle = json.loads(NN_FILE.read_text())["cases"][case]["cycle"]
    ops = SplitOperators(dist.n)
    pos = np.array([dist.ticker_index(t) for t in cycle])
    b = dist.d[pos[ops.p], pos[ops.q]]
    A = split_design_matrix(dist.n)
    _, res_ref = scipy.optimize.nnls(A, b)
    cap = 10 * A.shape[1] ** 2
    x_cold, _ = nnls_gram(ops.gram, ops.matvec, ops.rmatvec, b, cap)
    for name, start in warm_starts(x_cold, case).items():
        x, res = nnls_gram(ops.gram, ops.matvec, ops.rmatvec, b, cap, start)
        np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-10, err_msg=name)
        assert_no_worse_than_scipy(A, b, x, res, res_ref)


def test_two_columns_leave_in_one_step():
    # Columns 0 and 1 mirror each other, so both reach zero at the same step
    # once column 2 enters, and both leave the passive factor together.
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 1.0], [3.0, 1.0, 1.0]])
    b = np.array([6.0, 6.0, 4.0, 4.0])
    x, res = dense_nnls(A, b)
    np.testing.assert_allclose(x, [0.0, 0.0, 5.0], atol=1e-12)
    assert res == pytest.approx(2.0)


def test_stalled_block_steps_take_single_exchanges():
    # From all four columns the block steps count 1, 3, 1 and 1 infeasible
    # columns. The first two steps only drop columns (no Gram rows); the
    # fourth has not reached a new low for three steps, so it exchanges the
    # infeasible column of largest index alone: column 2 enters, to scipy's
    # optimum.
    A = np.array([[1.0, -1.0, 1.0, 1.0], [0.0, 1.0, -2.0, -1.0], [-1.0, 3.0, 1.0, 3.0],
                  [3.0, -3.0, 0.0, 2.0], [-3.0, 2.0, 3.0, 0.0]])
    b = np.array([4.0, 3.0, -4.0, 2.0, 1.0])
    gram, rows = A.T @ A, []
    x, res = nnls_gram(lambda r, c: rows.append(len(r)) or gram[np.ix_(r, c)],
                       lambda x: A @ x, lambda y: A.T @ y, b, 10 * 4 * 4, np.arange(4))
    assert rows == [4, 0, 0, 1, 1]
    x_ref, res_ref = scipy.optimize.nnls(A, b)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)
    assert res == pytest.approx(res_ref, rel=1e-12)


@pytest.mark.parametrize("start", [None, np.arange(3)])
def test_block_steps_cycle_without_the_backup_rule(start, monkeypatch):
    # Block steps alone cycle on this 3x3 problem (found by a search over
    # small integer matrices with cond(A) <= 100); the single exchanges of
    # the backup rule reach scipy's optimum.
    A = np.array([[-1.0, 1.0, 0.0], [-3.0, 1.0, 0.0], [-3.0, 3.0, 3.0]])
    b = np.array([-1.0, -1.0, 0.0])
    x, res = dense_nnls(A, b, start=start)
    x_ref, res_ref = scipy.optimize.nnls(A, b)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)
    assert res == pytest.approx(res_ref, rel=1e-12)
    monkeypatch.setattr(nnls, "STALL_STEPS", 10**9)
    with pytest.raises(NNLSConvergenceError):
        dense_nnls(A, b, max_iter=100, start=start)


def test_single_exchanges_reach_the_block_step_fit(monkeypatch):
    # With no stall allowed every step exchanges one column (Murty's rule),
    # which terminates for A of full column rank: the golden fits with
    # n <= 16 (cases 0..11) reach the block-step weights.
    for case in range(12):
        dist = nn_distance(case)
        assert dist.n <= 16
        cycle = tuple(json.loads(NN_FILE.read_text())["cases"][case]["cycle"])
        monkeypatch.setattr(nnls, "STALL_STEPS", 3)
        want = fit_split_weights(dist, cycle)
        monkeypatch.setattr(nnls, "STALL_STEPS", 0)
        got = fit_split_weights(dist, cycle)
        assert [(s.start, s.length) for s in got.splits] == \
            [(s.start, s.length) for s in want.splits], case
        np.testing.assert_allclose([s.weight for s in got.splits],
                                   [s.weight for s in want.splits], rtol=0, atol=1e-10)
