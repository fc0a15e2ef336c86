"""Deterministic complex reductions, the Gram matrix and K x K Hermitian solves.

Channel powers and inner products are numpy pairwise sums over the
elementwise products.  The Gram matrix of two or more columns is one real
BLAS product: the columns' real and imaginary parts, stacked as the rows of
one 2K x M matrix B, give B B^T (numpy's syrk), and G is read off its four
K x K blocks, exactly Hermitian, for any number of rows (_gram); the
M-sweeps sum the blocks (_products) over strips of elements, some narrower
than the user count, and form G once (_hermitian).  Neither result
depends on the BLAS thread count at up to 16 users, so every output is
bitwise reproducible on one machine; the level-1 BLAS dot products
(``np.vdot``, ``np.dot`` on vectors) are avoided because their last bits
change with the BLAS thread count.  Across machines results agree to
rounding.  compensated_sum (exactly rounded
``math.fsum``) is kept as the test oracle for these reductions.
condition (blind to user powers) and hermitian_solve (numpy's Cholesky
factor and two np.linalg.solve calls on it: LU solves, gesv, not triangular
ones) take only matrices sized by the user count, the Gram matrix and its
MMSE counterpart, one or a whole stack in one call; nothing here allocates
or factors an M x M matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingularError

# Largest condition number a K x K matrix may have: 1 / (1e3 * machine epsilon).
MAX_CONDITION = 1.0 / (1e3 * np.finfo(float).eps)


def compensated_sum(values) -> float:
    """Exactly rounded sum of real values; result is order independent."""
    arr = np.asarray(values, dtype=float)
    return math.fsum(arr.tolist())


def cdot(x, y) -> complex:
    """Inner product conj(x) . y as a pairwise sum."""
    return complex(np.sum(np.conj(x) * np.asarray(y)))


def vector_power(x) -> float:
    """Squared two-norm of a vector as a pairwise sum; complex: its one-column Gram's."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return float(_gram(_planes(x[:, None]))[0, 0].real)
    return float(np.sum(x * x))


def gram(a: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix conj(A).T @ A of any M x n matrix, M < n included.

    The result is exactly Hermitian with a real diagonal.  Any M is taken
    so that a Gram can be summed from the Grams of disjoint sets of rows,
    however few each holds.  A single column's power is one elementwise
    pairwise sum (vector_power takes it), because BLAS turns a one-column
    product into a dot product whose rounding depends on the thread count.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return _gram(_planes(a))


def _planes(a: np.ndarray) -> np.ndarray:
    """The (2, n, M) real and imaginary planes of the n columns of an M x n complex matrix."""
    return np.stack([a.real.T, a.imag.T])


def _gram(planes: np.ndarray) -> np.ndarray:
    """gram's kernel, without its checks: the Gram of the columns whose real
    and imaginary parts are the rows of planes[0] and planes[1]."""
    _, n, m = planes.shape
    return _hermitian(_products(planes.reshape(2 * n, m)))


def _products(b: np.ndarray) -> np.ndarray:
    """The real 2n x 2n products b @ b.T of the 2n x M stacked planes b, n columns.

    For n >= 2 this is one product of b with its own transpose, which numpy
    hands to BLAS syrk: half the work of a complex A^H A, exactly symmetric.
    For one column BLAS would take dot products, whose rounding depends on
    the thread count, so there the [0, 0] entry is the column's power as
    one elementwise pairwise sum, and the rest is 0.  Products of disjoint
    sets of elements add up to those of their union (_hermitian).
    """
    if len(b) != 2:
        return b @ b.T
    out = np.zeros((2, 2))
    out[0, 0] = np.sum(b[0] * b[0] + b[1] * b[1])
    return out


def _hermitian(s: np.ndarray) -> np.ndarray:
    """The n x n complex Gram of real products s (_products), or of an (..., 2n, 2n) stack.

    With s = [[S_rr, S_ri], [S_ir, S_ii]], G = (S_rr + S_ii) + j (S_ri - S_ir):
    exactly Hermitian, with a zero imaginary diagonal, for every exactly
    symmetric s.
    """
    n = s.shape[-1] // 2
    g = np.empty(s.shape[:-2] + (n, n), dtype=complex)
    g.real = s[..., :n, :n] + s[..., n:, n:]
    g.imag = s[..., :n, n:] - s[..., n:, :n]
    return g


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    """h as a complex array of square matrices, checked to be finite and Hermitian within 1e-10."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("array must not contain infs or NaNs")
    scale = np.abs(h).max(axis=(-2, -1), initial=0.0)
    skew = np.abs(h - np.swapaxes(h, -2, -1).conj()).max(axis=(-2, -1), initial=0.0)
    if np.any(skew > 1e-10 * scale):
        raise ValueError("matrix is not Hermitian within tolerance 1e-10")
    return h


def condition(h: np.ndarray) -> np.ndarray:
    """lambda_max / lambda_min of D^-1/2 H D^-1/2, D = diag(H), per H of a stack, by one eigvalsh.

    It is inf where H is not positive definite, and never raises for a singular H.
    """
    h = _check_hermitian(h)
    with np.errstate(all="ignore"):  # a diagonal entry <= 0, or an overflow: H is indefinite
        root = np.sqrt(np.diagonal(h, axis1=-2, axis2=-1).real)
        unit = h / root[..., :, None] / root[..., None, :]
        valid = np.isfinite(unit).all(axis=(-2, -1))
        eig = np.linalg.eigvalsh(np.where(valid[..., None, None], unit, np.eye(h.shape[-1])))
        return np.where(valid & (eig[..., 0] > 0.0), eig[..., -1] / eig[..., 0], np.inf)


def hermitian_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H X = B for Hermitian positive definite H, or a stack of them, via Cholesky.

    h is one n x n matrix or an (..., n, n) stack, and b one length-n vector
    or n-row matrix shared by every system; X has shape h.shape[:-2] +
    b.shape.  H = L L^H, then L Y = B and L^H X = Y, each solved by
    np.linalg.solve, which LU-factors the triangular L (gesv) rather than
    substituting through it; each matrix of a stack takes the LAPACK calls
    it would take alone, so its solution is bitwise that of a one-matrix
    call.  Every system is solved, or NearSingularError is raised when some
    H is numerically indefinite; callers gate conditioning with condition.
    """
    h = _check_hermitian(h)
    b = np.asarray(b, dtype=complex)
    n = h.shape[-1]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected {n} rows")
    out_shape = h.shape[:-2] + b.shape
    if n == 0:
        return np.zeros(out_shape, dtype=complex)
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    try:
        factor = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise NearSingularError("matrix is not numerically positive definite") from None
    rhs = np.broadcast_to(b.reshape(n, -1), h.shape[:-2] + (n, b.size // n))
    y = np.linalg.solve(factor, rhs)
    return np.linalg.solve(np.swapaxes(factor, -2, -1).conj(), y).reshape(out_shape)
