"""Deterministic complex reductions, the Gram matrix and K x K Hermitian solves.

Channel powers and inner products are numpy pairwise sums over the
elementwise products, and the Gram matrix of two or more columns is one
BLAS ``A^H A`` product.  Neither result depends on the BLAS or Python
thread count, so every output is bitwise reproducible on one machine; the
level-1 BLAS dot products (``np.vdot``, ``np.dot`` on vectors) are avoided
because their last bits change with the BLAS thread count.  Across
machines results agree to rounding.  compensated_sum (exactly rounded
``math.fsum``) is kept as the test oracle for these reductions.
hermitian_solve factors only matrices sized by the user count (the Gram
matrix and its MMSE counterpart); nothing here allocates or factors an
M x M matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotrs

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
    if not (np.isfinite(h).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    scale = float(np.max(np.abs(h)))
    if scale > 0 and float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within tolerance 1e-10")
    # the LAPACK routines behind scipy's cho_factor/cho_solve, without their wrappers
    factor, info = zpotrf(h, lower=1, clean=0)
    if info != 0:
        raise NearSingularError(
            f"matrix is not numerically positive definite (leading minor {info})"
        )
    diag = np.abs(np.diag(factor))
    dmin = float(diag.min())
    cond = math.inf if dmin == 0.0 else float((diag.max() / dmin) ** 2)
    if cond > MAX_CONDITION:
        raise NearSingularError(
            f"condition estimate {cond:.3e} exceeds {MAX_CONDITION:.3e}; "
            "user channels are numerically collinear",
            cond_estimate=cond,
        )
    return zpotrs(factor, b, lower=1)[0]

