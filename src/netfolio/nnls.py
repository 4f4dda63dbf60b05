"""Non-negative least squares by block principal pivoting, driven through
operators instead of a stored design matrix.

``nnls_gram`` reads A only through three callbacks: the product A·x, the
product Aᵀ·y and entries of the Gram matrix AᵀA. Block principal pivoting
(Portugal, Júdice & Vicente 1994; Kim & Park 2011) keeps a passive set, one
ordered array of column indices, empty unless the caller passes a guess as
``start``. Each step factors the passive Gram block by one Cholesky (scaled
to unit diagonal), solves it by two triangular substitutions (no inverse is
formed), takes one gradient w = Aᵀ(b − A·x) from the two products, drops
every passive column whose solve is not positive and enters at most
isqrt(2N) of the N columns, those of largest positive gradient. A step with
no infeasible column ends the solve, and its residual is the fit's. The
block is the normal-equations one (Bro & De Jong 1997), which squares
cond(A).

Termination is PJV's backup rule: once the count of infeasible columns has
not reached a new low for three steps, each step exchanges only the
infeasible column of largest index (Murty's rule), which ends finitely for
A of full column rank, until the count falls below its low again. With A
of full column rank the optimum is unique, so a guess changes the path, not
the result. A must have it: a start column, or a step's first entering
column, that (nearly) depends on the columns before it raises; a later
entering one waits for the next step. The split fit starts from the
largest entries of A⁻¹b: at n = 64 and 100 it makes 23 and 25 prefix reads
where one split per step made 262 and 418.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# A squared Cholesky pivot (of the unit-diagonal block) at or below this marks
# the column as dependent: 1/pivot² bounds the block's condition number from
# below, and past sqrt(eps) a solve keeps fewer than half the digits.
DEPENDENT = np.sqrt(np.finfo(float).eps)

# Block steps give way to single exchanges once this many steps in a row have
# not lowered the count of infeasible columns (p = 3 of Portugal, Júdice &
# Vicente 1994).
STALL_STEPS = 3


class NNLSConvergenceError(ValueError):
    pass


def nnls_gram(
    gram: Callable[[np.ndarray, np.ndarray], np.ndarray],
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    max_iter: int,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Solve min_x ||A x - b||_2 subject to x >= 0 for A of full column rank,
    given (AᵀA)[rows][:, cols] as ``gram(rows, cols)``, A·x as ``matvec(x)``
    and Aᵀ·y as ``rmatvec(y)``, in at most ``max_iter`` active-set steps.
    Returns (x, residual_norm).

    ``start``, distinct column indices, is a guess at the passive set (None
    or empty: none). The optimum is unique, so the guess changes the path,
    not the result."""
    b = np.asarray(b, dtype=float)
    atb = np.asarray(rmatvec(b), dtype=float)
    m, n = b.size, atb.size
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(b).max(initial=1.0)))

    cols = np.asarray([] if start is None else start, dtype=np.intp)  # the passive set
    block = gram(cols, cols)
    residual = b  # b − A·x for x = 0
    entry_cap = math.isqrt(2 * n)
    fewest, stalled = n + 1, 0
    # The leading ``known`` passive columns factored at the last step; a
    # dependent column before ``firm`` raises, a later one waits.
    known, firm = 0, cols.size
    for _ in range(max_iter):
        while (factor := scaled_cholesky(block)) is None:
            j = first_dependent(block, known)
            if j < firm:
                raise ValueError(f"NNLS column {cols[j]} depends on the passive columns "
                                 f"(squared pivot {squared_pivot(block, j):.3g}): "
                                 "A lacks full column rank")
            cols, block = cols[:j], block[:j, :j]
        scale, chol = factor
        z = cholesky_solve(chol, atb[cols] * scale) * scale
        del factor, chol  # freed before the next block is built and factored
        x = np.zeros(n)
        x[cols] = z
        residual = b - matvec(x)
        w = rmatvec(residual)
        passive = np.zeros(n, dtype=bool)
        passive[cols] = True
        leaving = z <= tol
        entering = np.flatnonzero(~passive & (w > tol))
        infeasible = np.count_nonzero(leaving) + entering.size
        if not infeasible:
            return x, float(np.linalg.norm(residual))
        if infeasible < fewest:
            fewest, stalled = infeasible, 0
        else:
            stalled += 1
        if stalled >= STALL_STEPS:  # exchange the infeasible column of largest index
            last = max(cols[leaving].max(initial=-1), entering.max(initial=-1))
            leaving, entering = cols == last, entering[entering == last]
        else:
            entering = entering[np.argsort(-w[entering], kind="stable")[:entry_cap]]
        # Passive columns stay in entry order, so only the entering Gram rows
        # are computed.
        kept = ~leaving
        old = cols[kept]
        cols = np.concatenate([old, entering])
        rows = gram(entering, cols)
        block = np.block([[block[np.ix_(kept, kept)], rows[:, : old.size].T], [rows]])
        known, firm = old.size, old.size + 1
    raise NNLSConvergenceError(f"active-set iteration cap {max_iter} exceeded "
                               f"(residual {np.linalg.norm(residual):.6g})")


def scaled_cholesky(block: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(s, L) with s = 1/sqrt(diag G) and S G S = L Lᵀ for a Gram block G, or
    None when a squared pivot of L is at most ``DEPENDENT`` (or G is not
    positive definite): then some column depends on the others."""
    diagonal = np.diag(block)
    if not np.all(diagonal > 0.0):
        return None
    scale = 1.0 / np.sqrt(diagonal)
    try:
        chol = np.linalg.cholesky(block * scale[:, None] * scale)
    except np.linalg.LinAlgError:
        return None
    return (scale, chol) if np.all(np.diag(chol) ** 2 > DEPENDENT) else None


def first_dependent(block: np.ndarray, known: int) -> int:
    """The first column of a Gram block that ``scaled_cholesky`` cannot factor,
    given that its leading ``known`` columns factor. A leading block's pivots
    are the block's first pivots, so bisection over leading blocks finds it."""
    good, bad = known, block.shape[0]  # leading blocks that do and do not factor
    while bad - good > 1:
        mid = (good + bad) // 2
        if scaled_cholesky(block[:mid, :mid]) is None:
            bad = mid
        else:
            good = mid
    return good


def squared_pivot(block: np.ndarray, j: int) -> float:
    """Column j's squared Cholesky pivot in the unit-diagonal block: 1 minus
    the squared norm of its projection on the columns before it (0 for a
    zero column)."""
    if not block[j, j] > 0.0:
        return 0.0
    scale = 1.0 / np.sqrt(np.diag(block)[: j + 1])
    column = block[:j, j] * scale[:j] * scale[j]
    lead = block[:j, :j] * scale[:j, None] * scale[:j]
    return 1.0 - float(column @ np.linalg.solve(lead, column))


def cholesky_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(L Lᵀ)⁻¹ rhs for lower triangular L: forward, then back substitution,
    32 rows at a time. numpy has no triangular solve, and a dense solve
    would factor the block again; here each step solves one small diagonal
    block after a product with the rows already found. (32 rows ran fastest
    of 16 to 128 for 100 to 700 passive columns.)"""
    k, width = rhs.size, 32
    y = np.empty(k)
    for s in range(0, k, width):
        e = min(s + width, k)
        y[s:e] = np.linalg.solve(chol[s:e, s:e], rhs[s:e] - chol[s:e, :s] @ y[:s])
    x = np.empty(k)
    for e in range(k, 0, -width):
        s = max(e - width, 0)
        x[s:e] = np.linalg.solve(chol[s:e, s:e].T, y[s:e] - chol[e:, s:e].T @ x[e:])
    return x
