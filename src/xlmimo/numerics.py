"""Deterministic complex reductions, the Gram matrix and K x K Hermitian solves.

Channel powers and inner products are numpy pairwise sums over the
elementwise products, and the Gram matrix of two or more columns is one
BLAS ``A^H A`` product, for any number of rows: the nested M-sweeps sum it
over strips of elements, some narrower than the user count.  Neither
result depends on the BLAS or Python
thread count, so every output is bitwise reproducible on one machine; the
level-1 BLAS dot products (``np.vdot``, ``np.dot`` on vectors) are avoided
because their last bits change with the BLAS thread count.  Across
machines results agree to rounding.  compensated_sum (exactly rounded
``math.fsum``) is kept as the test oracle for these reductions.
hermitian_solve factors only matrices sized by the user count (the Gram
matrix and its MMSE counterpart), one at a time or a whole stack of them in
one call, with numpy's Cholesky factor and two np.linalg.solve calls on it
(LU solves, gesv, not triangular ones); nothing here allocates or factors
an M x M matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingularError

# Condition-estimate ceiling: 1 / (1e3 * machine epsilon).
MAX_CONDITION = 1.0 / (1e3 * np.finfo(float).eps)


def compensated_sum(values) -> float:
    """Exactly rounded sum of real values; result is order independent."""
    arr = np.asarray(values, dtype=float)
    return math.fsum(arr.tolist())


def cdot(x, y) -> complex:
    """Inner product conj(x) . y as a pairwise sum."""
    return complex(np.sum(np.conj(x) * np.asarray(y)))


def vector_power(x) -> float:
    """Squared two-norm of a vector as a pairwise sum."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return float(np.sum(x.real * x.real + x.imag * x.imag))
    return float(np.sum(x * x))


def gram(a: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix conj(A).T @ A of any M x n matrix, M < n included.

    The result is exactly Hermitian with a real diagonal.  Any M is taken
    so that a Gram can be summed from the Grams of disjoint sets of rows,
    however few each holds.  A single column
    goes through vector_power, because BLAS turns a one-column product
    into a dot product whose rounding depends on the thread count.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[1] == 1:
        return np.array([[vector_power(a[:, 0])]], dtype=complex)
    g = a.conj().T @ a
    return (g + g.conj().T) / 2.0


def hermitian_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H X = B for Hermitian positive definite H, or a stack of them, via Cholesky.

    h is one n x n matrix or an (..., n, n) stack, and b one length-n vector
    or n-row matrix shared by every system; X has shape h.shape[:-2] +
    b.shape.  H = L L^H, then L Y = B and L^H X = Y, each solved by
    np.linalg.solve, which LU-factors the triangular L (gesv) rather than
    substituting through it; each matrix of a stack takes the LAPACK calls
    it would take alone, so its solution is bitwise that of a one-matrix
    call.  Every system is solved, or NearSingularError is raised when some
    H is numerically indefinite or its condition estimate (from the
    Cholesky factor diagonal) exceeds MAX_CONDITION; the worst estimate
    rides along.
    """
    h = np.asarray(h, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    n = h.shape[-1]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected {n} rows")
    out_shape = h.shape[:-2] + b.shape
    if n == 0:
        return np.zeros(out_shape, dtype=complex)
    if not (np.isfinite(h).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    scale = np.abs(h).max(axis=(-2, -1))
    skew = np.abs(h - np.swapaxes(h, -2, -1).conj()).max(axis=(-2, -1))
    if np.any(skew > 1e-10 * scale):
        raise ValueError("matrix is not Hermitian within tolerance 1e-10")
    try:
        factor = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise NearSingularError("matrix is not numerically positive definite") from None
    diag = np.abs(np.diagonal(factor, axis1=-2, axis2=-1))
    # a factor's diagonal is positive, but the spread of its entries may overflow
    with np.errstate(over="ignore"):
        cond = float(((diag.max(axis=-1) / diag.min(axis=-1)) ** 2).max(initial=0.0))
    if cond > MAX_CONDITION:
        raise NearSingularError(
            f"condition estimate {cond:.3e} exceeds {MAX_CONDITION:.3e}; "
            "user channels are numerically collinear",
            cond_estimate=cond,
        )
    rhs = np.broadcast_to(b.reshape(n, -1), h.shape[:-2] + (n, b.size // n))
    y = np.linalg.solve(factor, rhs)
    return np.linalg.solve(np.swapaxes(factor, -2, -1).conj(), y).reshape(out_shape)
