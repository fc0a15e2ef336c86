"""Deterministic complex reductions and small structured Hermitian solves.

Channel powers and inner products are numpy pairwise sums over the
elementwise products, and the Gram matrix of two or more columns is one
BLAS ``A^H A`` product.  Neither result depends on the BLAS or Python
thread count, so every output is bitwise reproducible on one machine; the
level-1 BLAS dot products (``np.vdot``, ``np.dot`` on vectors) are avoided
because their last bits change with the BLAS thread count.  Across
machines results agree to rounding.  compensated_sum (exactly rounded
``math.fsum``) is kept as the test oracle for these reductions.  The solves
only ever factor matrices sized by the user count; nothing here allocates
or factors an M x M matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
    """Hermitian Gram matrix conj(A).T @ A of an M x n matrix, n <= M.

    The result is exactly Hermitian with a real diagonal.  A single column
    goes through vector_power, because BLAS turns a one-column product
    into a dot product whose rounding depends on the thread count.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    m, n = a.shape
    if n > m:
        raise ValueError(f"more columns than rows ({n} > {m})")
    if n == 1:
        return np.array([[vector_power(a[:, 0])]], dtype=complex)
    g = a.conj().T @ a
    return (g + g.conj().T) / 2.0


def hermitian_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H X = B for Hermitian positive definite H via Cholesky.

    Raises NearSingularError when H is numerically indefinite or its
    condition estimate (from the Cholesky factor diagonal) exceeds
    MAX_CONDITION; the estimate rides along on the exception.
    """
    h = np.asarray(h, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")
    if n == 0:
        return np.zeros(b.shape, dtype=complex)
    scale = float(np.max(np.abs(h)))
    if scale > 0 and float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within tolerance 1e-10")
    try:
        factor = cho_factor(h, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(
            f"matrix is not numerically positive definite: {exc}"
        ) from exc
    diag = np.abs(np.diag(factor[0]))
    dmin = float(diag.min())
    cond = math.inf if dmin == 0.0 else float((diag.max() / dmin) ** 2)
    if cond > MAX_CONDITION:
        raise NearSingularError(
            f"condition estimate {cond:.3e} exceeds {MAX_CONDITION:.3e}; "
            "user channels are numerically collinear",
            cond_estimate=cond,
        )
    return cho_solve(factor, b)


def project_orthogonal(abar: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Component of x orthogonal to the columns of abar (M x n, n small).

    Computes x - abar @ (abar^H abar)^-1 abar^H x without ever forming the
    M x M projector.  Raises NearSingularError when the columns of abar are
    numerically rank deficient.
    """
    abar = np.asarray(abar, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if abar.ndim != 2 or abar.shape[0] != x.shape[0]:
        raise ValueError(f"shape mismatch: abar {abar.shape} vs x {x.shape}")
    n = abar.shape[1]
    if n == 0:
        return x.copy()
    rhs = np.array([cdot(abar[:, j], x) for j in range(n)])
    coef = hermitian_solve(gram(abar), rhs)
    return x - (abar * coef).sum(axis=1)


def whitened_apply(abar: np.ndarray, weights, x: np.ndarray) -> np.ndarray:
    """Apply the inverse of C = I + sum_i w_i a_i a_i^H to x, matrix free.

    Uses the low-rank inversion identity
    C^-1 x = x - abar @ (diag(1/w) + abar^H abar)^-1 abar^H x,
    whose inner matrix is positive definite for any positive weights.
    """
    abar = np.asarray(abar, dtype=complex)
    x = np.asarray(x, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if abar.ndim != 2 or abar.shape[0] != x.shape[0]:
        raise ValueError(f"shape mismatch: abar {abar.shape} vs x {x.shape}")
    n = abar.shape[1]
    if weights.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {weights.shape}")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    if n == 0:
        return x.copy()
    rhs = np.array([cdot(abar[:, j], x) for j in range(n)])
    h = gram(abar)
    h[np.diag_indices(n)] += 1.0 / weights
    coef = hermitian_solve(h, rhs)
    return x - (abar * coef).sum(axis=1)
