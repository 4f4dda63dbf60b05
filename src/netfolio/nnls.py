"""Non-negative least squares by the Lawson-Hanson active-set method on the
normal equations (Bro & De Jong 1997): it reads Aᵀb and the AᵀA columns of
entering variables only. That squares cond(A), so it is accurate while
cond(A) stays well below 1/sqrt(eps) ~ 1e8."""

from __future__ import annotations

from typing import Callable

import numpy as np


class NNLSConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.6g})")
        self.residual = residual


def nnls(A: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """Solve min_x ||A x - b||_2 subject to x >= 0.

    Returns (x, residual_norm). Raises NNLSConvergenceError if the active-set
    iteration cap is exceeded.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    gram = A.T @ A
    return nnls_gram(lambda j: gram[:, j], A.T @ b, b, lambda cols: A[:, cols], max_iter)


def nnls_gram(
    gram_column: Callable[[int], np.ndarray],
    atb: np.ndarray,
    b: np.ndarray,
    design: Callable[[np.ndarray], np.ndarray],
    max_iter: int | None = None,
) -> tuple[np.ndarray, float]:
    """``nnls`` given column j of AᵀA as ``gram_column(j)``, Aᵀb, b, and the
    columns of A as ``design(cols)`` (read only for the residual)."""
    m, n = b.size, atb.size
    if max_iter is None:
        max_iter = 10 * n * n
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(b).max(initial=1.0)))

    def residual(x: np.ndarray) -> float:
        cols = np.flatnonzero(x)
        return float(np.linalg.norm(design(cols) @ x[cols] - b))

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    columns: dict[int, np.ndarray] = {}
    w = np.array(atb, dtype=float)
    iters = 0
    while True:
        free = ~passive
        if not free.any() or np.max(w[free]) <= tol:
            break
        j = int(np.flatnonzero(free)[np.argmax(w[free])])
        passive[j] = True
        if j not in columns:
            columns[j] = gram_column(j)
        entering = True
        while True:
            iters += 1
            if iters > max_iter:
                message = f"active-set iteration cap {max_iter} exceeded"
                raise NNLSConvergenceError(message, residual(x))
            cols = np.flatnonzero(passive)
            rows = np.array([columns[k] for k in cols])
            z = np.zeros(n)
            z[cols], singular = _solve(rows[:, cols], atb[cols])
            if entering and (singular or z[j] <= tol):
                # Lawson & Hanson: an entering column that is dependent or not
                # positive waits until w changes. Only it could have x == z (both
                # 0); every other shrinking coordinate has x > tol >= z.
                passive[j], w[j] = False, 0.0
                break
            entering = False
            if np.all(z[cols] > tol):
                x = z
                w = atb - rows.T @ x[cols]
                break
            # Step toward z until the first passive coordinate hits zero.
            shrink = cols[z[cols] <= tol]
            alpha = np.min(x[shrink] / (x[shrink] - z[shrink]))
            x = x + alpha * (z - x)
            passive[np.flatnonzero(passive)[x[passive] <= tol]] = False
            x[~passive] = 0.0
    return x, residual(x)


def _solve(gram: np.ndarray, atb: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve a passive block scaled to unit diagonal; (z, singular). A squared
    Cholesky pivot at rounding level marks the block singular, and a singular
    block gets the least-norm solution."""
    scale = 1.0 / np.sqrt(np.diag(gram))
    scaled, rhs = gram * scale[:, None] * scale, atb * scale
    try:
        singular = bool(np.diag(np.linalg.cholesky(scaled)).min() ** 2 <= 1e3 * np.finfo(float).eps)
    except np.linalg.LinAlgError:
        singular = True
    y = np.linalg.lstsq(scaled, rhs, rcond=None)[0] if singular else np.linalg.solve(scaled, rhs)
    return y * scale, singular
