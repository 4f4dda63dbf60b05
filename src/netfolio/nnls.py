"""Non-negative least squares by the Lawson-Hanson active-set method, driven
through operators instead of a stored design matrix.

``nnls_gram`` reads A only through three callbacks: the product
A·x, the product Aᵀ·y and entries of the Gram matrix AᵀA. Each outer step
takes the gradient w = Aᵀ(b − A·x) from the two products, and each passive
solve uses an inverse Cholesky factor of the passive Gram block (scaled to
unit diagonal) that is bordered when a variable enters and updated by
Givens rotations when one leaves, so a step costs two products plus O(k²)
for k passive variables. The block is the normal-equations one (Bro & De
Jong 1997), which squares cond(A). A must have full column rank: a column
that (nearly) depends on the passive ones raises instead of entering.

A caller that can guess the passive set passes it as ``start``, and block
principal pivoting (Portugal, Júdice & Vicente 1994; Kim & Park 2011)
refines the guess many columns at a time. A block step factors the passive
Gram block by one Cholesky, which also finds a dependent column, solves it
by two triangular substitutions (no inverse is formed), takes one gradient,
drops every passive column whose solve is not positive and enters at most
isqrt(2N) of the N columns, those of largest positive gradient. A step with
no infeasible column ends the solve. Once the count of infeasible columns
has not fallen for three steps, the guess is dropped and Lawson-Hanson,
which terminates, runs from x = 0. With A of full column rank the optimum
is unique, so a guess changes the path, not the result. Without a guess
(the cold path) Lawson-Hanson runs from x = 0, one column per step. The split fit starts from the largest
entries of A⁻¹b: at n = 64 and 100 it makes 24 and 26 prefix reads where
one split per step made 262 and 418.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# A squared Cholesky pivot (of the unit-diagonal block) at or below this marks
# the entering column as dependent: 1/pivot² bounds the block's condition
# number from below, and past sqrt(eps) a solve keeps fewer than half the digits.
DEPENDENT = np.sqrt(np.finfo(float).eps)

# A warm start hands over to Lawson-Hanson once this many block steps in a
# row have not lowered the count of infeasible columns (p = 3 of Portugal,
# Júdice & Vicente 1994).
STALL_STEPS = 3


class NNLSConvergenceError(ValueError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.6g})")
        self.residual = residual


def nnls_gram(
    gram: Callable[[np.ndarray, np.ndarray], np.ndarray],
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    max_iter: int | None = None,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Solve min_x ||A x - b||_2 subject to x >= 0 for A of full column rank,
    given (AᵀA)[rows][:, cols] as ``gram(rows, cols)``, A·x as ``matvec(x)``
    and Aᵀ·y as ``rmatvec(y)``. Returns (x, residual_norm).

    ``start``, distinct column indices, is a guess at the passive set that
    block principal pivoting refines before any Lawson-Hanson step. The
    optimum is unique, so the guess changes the path, not the result."""
    b = np.asarray(b, dtype=float)
    atb = np.asarray(rmatvec(b), dtype=float)
    m, n = b.size, atb.size
    if max_iter is None:
        max_iter = 10 * n * n
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(b).max(initial=1.0)))

    def residual(x: np.ndarray) -> float:
        return float(np.linalg.norm(matvec(x) - b))

    x = np.zeros(n)  # nonzero only on the passive set
    passive = np.zeros(n, dtype=bool)
    factor = PassiveFactor()
    w = atb.copy()
    iters = 0

    def check_cap() -> None:
        if iters > max_iter:
            message = f"active-set iteration cap {max_iter} exceeded"
            raise NNLSConvergenceError(message, residual(x))

    if start is not None and len(start):
        # Block principal pivoting: solve the whole passive block, then drop
        # every passive column whose solve is not positive and enter the free
        # columns of largest positive gradient, at most isqrt(2n) of them.
        # The passive columns stay in entry order, so a step computes only
        # the Gram rows of the columns it enters.
        cols = np.asarray(start, dtype=np.intp)
        block = gram(cols, cols)
        passive[cols] = True
        entry_cap = math.isqrt(2 * n)
        fewest, stalled = n + 1, 0
        while True:
            iters += 1
            check_cap()
            z = solve_block(cols, block, atb[cols])
            x[cols] = z
            w = rmatvec(b - matvec(x))
            leaving = z <= tol
            entering = np.flatnonzero(~passive & (w > tol))
            infeasible = np.count_nonzero(leaving) + entering.size
            if not infeasible:
                return x, residual(x)
            if infeasible < fewest:
                fewest, stalled = infeasible, 0
            else:
                stalled += 1
                if stalled == STALL_STEPS:
                    break
            x[cols[leaving]] = 0.0
            passive[cols[leaving]] = False
            entering = entering[np.argsort(-w[entering], kind="stable")[:entry_cap]]
            passive[entering] = True
            kept = ~leaving
            old = cols[kept]
            cols = np.concatenate([old, entering])
            rows = gram(entering, cols)
            block = np.block([[block[np.ix_(kept, kept)], rows[:, : old.size].T], [rows]])
        # Stalled: Lawson-Hanson, which terminates, starts over from x = 0.
        x[:], passive[:], w = 0.0, False, atb.copy()
    while True:
        j = int(np.argmax(np.where(passive, -np.inf, w)))  # first free maximum
        if passive[j] or w[j] <= tol:
            break
        passive[j] = True
        entering = True
        while True:
            iters += 1
            check_cap()
            if entering:
                factor.border(j, gram(np.append(factor.cols, j), [j])[:, 0])
            z = factor.solve(atb[factor.cols])
            if entering and z[-1] <= tol:
                # Lawson & Hanson: an entering column that is not positive waits
                # until w changes. Only it could have x == z (both 0); every
                # other shrinking coordinate has x > tol >= z.
                factor.delete(factor.k - 1)  # j, bordered last
                passive[j], w[j] = False, 0.0
                break
            cols = factor.cols
            entering = False
            if np.all(z > tol):
                x[cols] = z
                w = rmatvec(b - matvec(x))
                break
            # Step toward z until the first passive coordinate hits zero.
            xp = x[cols]
            shrink = z <= tol
            alpha = np.min(xp[shrink] / (xp[shrink] - z[shrink]))
            xp = xp + alpha * (z - xp)
            leaving = np.flatnonzero(xp <= tol)
            xp[leaving] = 0.0
            x[cols] = xp
            passive[cols[leaving]] = False
            for i in leaving[::-1]:
                factor.delete(int(i))
    return x, residual(x)


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


def solve_block(cols: np.ndarray, block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G⁻¹ rhs for the Gram block G of variables ``cols``, without forming an
    inverse. Raises as ``PassiveFactor.border`` does, naming the first
    dependent column."""
    if not cols.size:
        return np.zeros(0)
    cholesky = scaled_cholesky(block)
    if cholesky is None:
        # Names the dependent column, or factors a block just past the bound.
        return PassiveFactor.of_block(cols, block).solve(rhs)
    scale, chol = cholesky
    return cholesky_solve(chol, rhs * scale) * scale


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


class PassiveFactor:
    """Inverse Cholesky factor of the passive Gram block, in entry order.

    With s = 1/sqrt(diag G) and S G S = L Lᵀ for the passive block G, it
    holds M = L⁻¹ (lower triangular), so (S G S)⁻¹ = Mᵀ M and a solve is two
    products with M. Bordering a new variable and deleting one both cost
    O(k²) for k passive variables.
    """

    def __init__(self, capacity: int = 64):
        self.k = 0
        self._cols = np.empty(capacity, dtype=np.intp)
        self._scale = np.empty(capacity)
        self._m = np.zeros((capacity, capacity))

    @classmethod
    def of_block(cls, cols: np.ndarray, block: np.ndarray) -> PassiveFactor:
        """The factor of variables ``cols`` with Gram block ``block``, bordered
        one column at a time. Raises as ``border`` does, naming the first
        dependent column."""
        factor = cls(2 * len(cols))
        for i, j in enumerate(cols.tolist()):
            factor.border(j, block[: i + 1, i])
        return factor

    @property
    def cols(self) -> np.ndarray:
        """The passive variables, in factor order."""
        return self._cols[: self.k]

    @property
    def scale(self) -> np.ndarray:
        return self._scale[: self.k]

    @property
    def inverse(self) -> np.ndarray:
        """M = L⁻¹ for the scaled block S G S = L Lᵀ."""
        return self._m[: self.k, : self.k]

    def border(self, j: int, column: np.ndarray) -> None:
        """Append variable j given its Gram entries against ``cols`` and, last,
        its own. Raises ValueError, and leaves the factor as it was, when j is
        dependent: its squared pivot is at most ``DEPENDENT``."""
        k = self.k
        diagonal = float(column[k])
        s = 1.0 / np.sqrt(diagonal) if diagonal > 0.0 else 0.0
        M = self._m[:k, :k]
        l = M @ (column[:k] * self.scale * s)
        pivot2 = 1.0 - float(l @ l) if s else 0.0  # a zero column has no pivot
        if not pivot2 > DEPENDENT:
            raise ValueError(f"NNLS column {j} depends on the passive columns "
                             f"(squared pivot {pivot2:.3g}): A lacks full column rank")
        if k == self._m.shape[0]:
            self._grow()
            M = self._m[:k, :k]
        p = np.sqrt(pivot2)
        self._m[k, :k] = (l @ M) / -p
        self._m[k, k] = 1.0 / p
        self._m[:k, k] = 0.0
        self._cols[k], self._scale[k] = j, s
        self.k = k + 1

    def delete(self, i: int) -> None:
        """Drop the variable at factor position i.

        Rotating row i of M against each later row r in turn (Givens) zeroes
        M[r, i] and keeps every later row lower triangular, so deleting row
        and column i afterwards leaves the factor of the smaller block. The
        rotations run as cumulative sums: after rotation r, row i equals
        Σ_{t=i..r} M[t,i]·M[t] / ρ_r with ρ_r² = Σ_{t=i..r} M[t,i]².
        """
        k = self.k
        M = self._m[:k, :k]
        if i < k - 1:
            m = M[i:, i].copy()
            rho = np.sqrt(np.cumsum(m * m))
            rows = np.cumsum(m[:-1, None] * M[i:-1], axis=0) / rho[:-1, None]
            # Rotated rows i+1.. move up one row, then columns i+1.. move left.
            M[i:-1] = (rho[:-1, None] * M[i + 1 :] - m[1:, None] * rows) / rho[1:, None]
            M[:-1, i:-1] = M[:-1, i + 1 :]
            self._cols[i : k - 1] = self._cols[i + 1 : k]
            self._scale[i : k - 1] = self._scale[i + 1 : k]
        self.k = k - 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G⁻¹ rhs for the unscaled passive block G."""
        M, scale = self.inverse, self.scale
        return (M.T @ (M @ (rhs * scale))) * scale

    def _grow(self) -> None:
        k = self.k
        cap = max(2 * k, 1)
        m = np.zeros((cap, cap))
        m[:k, :k] = self._m
        self._m = m
        self._cols = np.concatenate([self._cols, np.empty(cap - k, dtype=np.intp)])
        self._scale = np.concatenate([self._scale, np.empty(cap - k)])
