"""Tests for deterministic reductions and the small structured solves."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from oracles import compensated_sum
from xlmimo.beamforming import evaluate_scenario, mmse, mrc, zf
from xlmimo.errors import NearSingularError, ZeroForcingInfeasibleError
from xlmimo.numerics import (
    MAX_CONDITION,
    _gram,
    cdot,
    condition,
    gram,
    hermitian_solve,
    vector_power,
)


def complex_randn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestReductions:
    def test_compensated_sum_is_exact(self):
        values = np.array([1e16, 1.0, -1e16] * 1000)
        assert compensated_sum(values) == 1000.0

    def test_cdot_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        x = complex_randn(rng, 64)
        y = complex_randn(rng, 64)
        assert cdot(x, y) == pytest.approx(np.conj(cdot(y, x)), rel=1e-15)

    def test_vector_power_matches_cdot(self):
        rng = np.random.default_rng(1)
        x = complex_randn(rng, 33)
        assert vector_power(x) == pytest.approx(cdot(x, x).real, rel=1e-15)


class TestOracle:
    """Pairwise-sum and BLAS reductions against the exactly rounded fsum oracle.

    Errors are measured against |x| |y|, the scale of an inner product's
    rounding error, so near-orthogonal columns are held to the same bound.
    """

    def test_reductions_match_compensated_sum_at_sweep_size(self):
        rng = np.random.default_rng(13)
        a = complex_randn(rng, 40_000, 10)
        g = gram(a)
        powers = [compensated_sum(a[:, i].real ** 2 + a[:, i].imag ** 2) for i in range(10)]
        for i in range(10):
            assert vector_power(a[:, i]) == pytest.approx(powers[i], rel=1e-12)
            assert vector_power(a[:, i].real) == pytest.approx(
                compensated_sum(a[:, i].real ** 2), rel=1e-12
            )
            for j in range(10):
                prod = np.conj(a[:, i]) * a[:, j]
                exact = complex(compensated_sum(prod.real), compensated_sum(prod.imag))
                scale = math.sqrt(powers[i] * powers[j])
                assert abs(g[i, j] - exact) <= 1e-12 * scale
                assert abs(cdot(a[:, i], a[:, j]) - exact) <= 1e-12 * scale


KERNEL_DIGEST = """
import hashlib
import numpy as np
import xlmimo.channel as ch
import xlmimo.cli as cli
from xlmimo.experiments import sample_users
from xlmimo.numerics import cdot, gram, vector_power
rng = np.random.default_rng(2021)
a = rng.standard_normal((40_000, 16)) + 1j * rng.standard_normal((40_000, 16))
cfg = cli.parse_config(experiment="sumrate-vs-m", overrides=[])
sizes = [(s, s) for s in cfg.sweep["sides"]]
users = sample_users(cfg.region, cfg.sweep["n_users"], (cfg.seed, 0))
out = [gram(a[:, :10]), gram(a[:10_010, :2]), gram(a[:, :1]), cdot(a[:, 0], a[:, 1]),
       vector_power(a[:, 3]), gram(a), ch._nested_grams(cfg.geometry, sizes, users, "pnusw")]
print(hashlib.sha256(b"".join(np.asarray(x).tobytes() for x in out)).hexdigest())
"""


def test_reductions_are_bitwise_identical_across_blas_threads(run_python):
    digests = []
    for threads in (1, 2):
        proc = run_python(["-c", KERNEL_DIGEST], blas_threads=threads)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


class TestGram:
    def test_single_unit_column(self):
        a = np.array([[0.6], [0.8j]])
        assert gram(a) == pytest.approx(np.array([[1.0]]), rel=1e-15)

    def test_orthonormal_columns(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert gram(a) == pytest.approx(np.eye(2))

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(2)
        a = complex_randn(rng, 50, 3)
        naive = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for row in range(50):
                    naive[i, j] += np.conj(a[row, i]) * a[row, j]
        assert gram(a) == pytest.approx(naive, rel=1e-12)

    def test_result_is_hermitian_psd(self):
        rng = np.random.default_rng(3)
        a = complex_randn(rng, 40, 5)
        g = gram(a)
        assert np.array_equal(g, g.conj().T)
        assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_wide_matrices_match_zero_padded_tall_ones(self):
        # zero rows leave A^H A unchanged, so a strip with fewer elements than
        # users needs no padding
        rng = np.random.default_rng(16)
        wide = complex_randn(rng, 2, 3)
        tall = np.vstack([wide, np.zeros((1, 3))])
        assert np.array_equal(gram(wide), gram(tall))


class TestGramKernel:
    """_gram on the real and imaginary planes (2, K, n) of K columns: one real
    product of the stacked planes with its own transpose, for K >= 2."""

    @pytest.mark.parametrize("n", [1, 5, 40_000])
    @pytest.mark.parametrize("k", [1, 2, 10, 16])
    def test_is_bitwise_hermitian_with_a_zero_imaginary_diagonal(self, k, n):
        g = _gram(np.random.default_rng(k * n).standard_normal((2, k, n)))
        assert g.shape == (k, k)
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.diagonal(g).imag == 0.0)

    @pytest.mark.parametrize("n", [1, 5, 40_000])
    @pytest.mark.parametrize("k", [2, 10, 16])
    def test_matches_compensated_sum(self, k, n):
        planes = np.random.default_rng(k + n).standard_normal((2, k, n))
        g = _gram(planes)
        a = planes[0].T + 1j * planes[1].T
        powers = [compensated_sum(a[:, i].real ** 2 + a[:, i].imag ** 2) for i in range(k)]
        for i in range(k):
            for j in range(i, k):  # the lower triangle is the upper's conjugate (above)
                prod = np.conj(a[:, i]) * a[:, j]
                exact = complex(compensated_sum(prod.real), compensated_sum(prod.imag))
                assert abs(g[i, j] - exact) <= 1e-12 * math.sqrt(powers[i] * powers[j])

    def test_one_column_is_one_pairwise_sum(self):
        # no BLAS dot product, whose rounding depends on the thread count
        re, im = planes = np.random.default_rng(17).standard_normal((2, 1, 10_001))
        g = _gram(planes)
        assert g.tobytes() == np.array([[np.sum(re[0] * re[0] + im[0] * im[0])]], complex).tobytes()
        column = re[0] + 1j * im[0]
        assert vector_power(column) == g[0, 0].real
        assert gram(column[:, None]).tobytes() == g.tobytes()


class TestHermitianSolve:
    def test_identity(self):
        inverse, cond = hermitian_solve(np.eye(2))
        assert inverse.tobytes() == np.eye(2, dtype=complex).tobytes()
        assert cond == 1.0

    def test_diagonal(self):
        inverse, _ = hermitian_solve(np.diag([1.0, 2.0]).astype(complex))
        assert inverse == pytest.approx(np.diag([1.0, 0.5]))

    def test_random_pd_residual(self):
        rng = np.random.default_rng(4)
        g = complex_randn(rng, 12, 6)
        h = gram(g) + np.eye(6)
        inverse, _ = hermitian_solve(h)
        assert np.linalg.norm(h @ inverse - np.eye(6)) <= 1e-10 * np.linalg.norm(np.eye(6))

    @pytest.mark.parametrize("k", [2, 10])
    def test_matches_scipy_cho_solve(self, k):
        # scipy's LAPACK Cholesky solve is the oracle: two backward-stable
        # solves agree within a few cond(H) eps of the solution
        rng = np.random.default_rng(k)
        h = gram(complex_randn(rng, 3 * k, k)) + np.eye(k)
        tol = 8.0 * np.linalg.cond(h) * np.finfo(float).eps
        oracle = cho_solve(cho_factor(h, lower=True), np.eye(k))
        inverse, cond = hermitian_solve(h)
        assert inverse.shape == oracle.shape
        assert np.linalg.norm(inverse - oracle) <= tol * np.linalg.norm(oracle)
        assert cond == condition(h)

    def test_stack_equals_one_matrix_calls_bitwise(self):
        rng = np.random.default_rng(20)
        h = np.stack([gram(complex_randn(rng, 30, 10)) + np.eye(10) for _ in range(5)])
        col = complex_randn(rng, 30)
        h[3] = gram(np.column_stack([col] * 10))  # fails: NaN, and the rest stay as they are
        inverse, cond = hermitian_solve(h)
        assert inverse.shape == h.shape and cond.shape == (5,)
        for i in range(5):
            alone = hermitian_solve(h[i])
            assert inverse[i].tobytes() == alone[0].tobytes()
            assert cond[i].tobytes() == alone[1].tobytes()

    def test_stack_fails_matrix_by_matrix(self):
        rng = np.random.default_rng(21)
        good = np.stack([gram(complex_randn(rng, 12, 3)) + np.eye(3) for _ in range(4)])
        col = complex_randn(rng, 12)
        h = good.copy()
        h[2] = gram(np.column_stack([col, col, 1j * col]))  # collinear
        h[3] = np.diag([1.0, -1.0, 1.0])  # indefinite
        inverse, cond = hermitian_solve(h)
        assert np.isnan(inverse[2:]).all() and cond[2] > MAX_CONDITION and np.isinf(cond[3])
        assert inverse[:2].tobytes() == hermitian_solve(good[:2])[0].tobytes()
        skewed = good.copy()
        skewed[1, 0, 2] += 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(skewed)
        nonfinite = good.copy()
        nonfinite[0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            hermitian_solve(nonfinite)

    def test_stack_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_solve(np.ones((4, 3, 2)))
        with pytest.raises(ValueError, match="square"):
            hermitian_solve(np.ones(3))
        for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):  # no 0 x 0 matrix
            with pytest.raises(ValueError, match="square"):
                hermitian_solve(empty)
            with pytest.raises(ValueError, match="square"):
                condition(empty)
        inverse, cond = hermitian_solve(np.zeros((0, 3, 3)))
        assert inverse.shape == (0, 3, 3) and cond.shape == (0,)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            hermitian_solve(np.array([[1.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            hermitian_solve(np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_indefinite_reads_nan(self):
        inverse, cond = hermitian_solve(np.diag([1.0, -1.0]))
        assert np.isnan(inverse).all() and np.isinf(cond)

    def test_rejects_non_hermitian(self):
        h = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_solve(h)

    def test_singular_reads_nan_with_its_condition(self):
        col = np.array([1.0, 1.0j, 0.5])
        h = gram(np.column_stack([col, col]))
        inverse, cond = hermitian_solve(h)
        assert np.isnan(inverse).all() and cond > MAX_CONDITION

    def test_a_cholesky_failure_after_the_gate_raises(self, monkeypatch):
        def fails(h):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        with pytest.raises(NearSingularError, match="positive definite") as excinfo:
            hermitian_solve(np.eye(2))
        assert excinfo.value.cond_estimate == math.inf

    def test_inverses_do_not_depend_on_the_blas_thread_count(self, run_python):
        # bitwise at 1 and 2 BLAS threads: inverses and condition numbers at
        # K <= 16 (README's promise), condition alone at K = 64 (its gate decisions)
        script = """
import hashlib, numpy as np
from xlmimo.numerics import condition, gram, hermitian_solve
rng = np.random.default_rng(7)
def stack(k, n):
    a = rng.standard_normal((n, 3 * k, k)) + 1j * rng.standard_normal((n, 3 * k, k))
    return np.stack([gram(m) for m in a])
digest = hashlib.sha256()
for k in (2, 10, 16):
    for part in hermitian_solve(stack(k, 20)):
        digest.update(part.tobytes())
digest.update(condition(stack(64, 4)).tobytes())
print(digest.hexdigest())
"""
        runs = [run_python(["-c", script], blas_threads=t) for t in (1, 2)]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout == runs[1].stdout


def unit_diagonal(h):
    root = np.sqrt(np.diagonal(h, axis1=-2, axis2=-1).real)
    return h / root[..., :, None] / root[..., None, :]


class TestCondition:
    def test_matches_numpy_cond_of_the_unit_diagonal_form(self):
        rng = np.random.default_rng(30)
        for k in (1, 2, 5, 10):
            # column scales over 24 decades: the unit-diagonal form does not see them
            scales = 10.0 ** rng.uniform(-12.0, 12.0, size=(6, 1, k))
            h = np.stack([gram(complex_randn(rng, 3 * k, k)) for _ in range(6)])
            h = h * scales * np.swapaxes(scales, -2, -1)
            got = condition(h)
            assert got.shape == (6,)
            expected = np.linalg.cond(unit_diagonal(h))
            assert np.allclose(got, expected, rtol=1e-10, atol=0.0)
            assert condition(h[0]) == got[0]

    def test_does_not_depend_on_user_powers(self):
        rng = np.random.default_rng(31)
        g = gram(complex_randn(rng, 8, 4))
        c = np.array([1e-6, 1.0, 3e5, 1e6])
        assert condition(c[:, None] * g * c[None, :]) == pytest.approx(condition(g), rel=1e-12)

    def test_singular_and_indefinite_matrices_are_inf_without_raising(self):
        col = np.array([1.0, 1.0j, 0.5])
        h = np.stack([
            np.eye(3),
            gram(np.column_stack([col, col, 2j * col])),  # rank 1
            np.diag([1.0, -1.0, 1.0]),  # indefinite
            np.diag([1.0, 0.0, 1.0]),  # zero diagonal entry
            np.array([[1e-300, 1e10, 0.0], [1e10, 1e-300, 0.0], [0.0, 0.0, 1.0]]),  # overflows
        ])
        assert condition(h)[0] == 1.0
        assert np.all(condition(h)[1:] > MAX_CONDITION)
        assert np.all(np.isinf(condition(h)[2:]))

    def test_rejects_what_hermitian_solve_rejects(self):
        nan_off_diagonal = np.eye(2, dtype=complex)
        nan_off_diagonal[0, 1] = nan_off_diagonal[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            condition(nan_off_diagonal)
        with pytest.raises(ValueError, match="Hermitian"):
            condition(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            condition(np.ones((2, 3)))


def with_user(x, abar):
    """Channel matrix [x | abar]: user 0 is x, its interferers are abar's columns."""
    return np.column_stack([x, abar]).astype(complex)


class TestProjectOrthogonal:
    """Projection of a user's channel off its interferers' span.

    zf() builds it as A G^-1 e_k from the K x K solve, normalized.
    """

    def test_standard_basis_column(self):
        abar = np.zeros((4, 1), dtype=complex)
        abar[0, 0] = 1.0
        x = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        assert zf(with_user(x, abar), 0) == pytest.approx(np.array([0.0, 1.0, 0.0, 0.0]))

    def test_already_orthogonal_is_unchanged(self):
        rng = np.random.default_rng(5)
        abar = complex_randn(rng, 30, 3)
        x = zf(with_user(complex_randn(rng, 30), abar), 0)
        again = zf(with_user(x, abar), 0)
        assert np.linalg.norm(again - x) <= 1e-12 * np.linalg.norm(x)

    def test_orthogonality_residuals(self):
        rng = np.random.default_rng(6)
        abar = complex_randn(rng, 200, 4)
        out = zf(with_user(complex_randn(rng, 200), abar), 0)
        for j in range(4):
            assert abs(cdot(abar[:, j], out)) <= 1e-10 * np.linalg.norm(abar[:, j])

    def test_no_interferers_returns_copy(self):
        x = np.array([1.0 + 1j, 2.0])
        assert zf(x[:, None], 0) == pytest.approx(mrc(x), rel=1e-15)

    def test_rank_deficient_columns_raise(self):
        rng = np.random.default_rng(7)
        col = complex_randn(rng, 20)
        a = with_user(complex_randn(rng, 20), np.column_stack([col, 2.0 * col]))
        with pytest.raises(ZeroForcingInfeasibleError):
            zf(a, 0)
        assert np.array_equal(evaluate_scenario(a, np.ones(3))["zf"], np.zeros(3))


class TestWhitenedApply:
    """Whitening of a user's channel by C_k = I + sum_{i != k} p_i a_i a_i^H.

    mmse() builds C_k^-1 a_k up to scale as A P^1/2 W^-1 e_k, and
    evaluate_scenario() reads p_k a_k^H C_k^-1 a_k off the diagonal of W^-1.
    """

    def test_no_interferers_is_identity(self):
        x = np.array([1.0, 2.0 - 1j])
        assert mmse(x[:, None], [3.0], 0) == pytest.approx(mrc(x), rel=1e-15)

    def test_single_unit_interferer_halves_its_direction(self):
        a = np.zeros((5, 2), dtype=complex)
        a[0, :] = 1.0
        # C_0 = I + e_0 e_0^H, so p_0 e_0^H C_0^-1 e_0 = p_0 / 2
        assert evaluate_scenario(a, [6.0, 1.0])["mmse"][0] == pytest.approx(3.0, rel=1e-14)

    def test_matrix_free_residual(self):
        rng = np.random.default_rng(8)
        abar = complex_randn(rng, 500, 9)
        weights = rng.uniform(0.1, 10.0, size=9)
        x = complex_randn(rng, 500)
        out = mmse(with_user(x, abar), np.concatenate([[1.0], weights]), 0)
        # apply C = I + sum_i w_i a_i a_i^H without forming it: C out is parallel to x
        back = out + (abar * (weights * np.array([cdot(abar[:, j], out) for j in range(9)]))).sum(axis=1)
        parallel = x * (cdot(x, back) / vector_power(x))
        assert np.linalg.norm(back - parallel) <= 1e-9 * np.linalg.norm(back)

    def test_vanishing_weights_approach_identity(self):
        rng = np.random.default_rng(9)
        abar = complex_randn(rng, 50, 3)
        abar /= np.linalg.norm(abar, axis=0)
        x = complex_randn(rng, 50)
        out = mmse(with_user(x, abar), [1.0] + [1e-12] * 3, 0)
        assert np.linalg.norm(out - mrc(x)) <= 1e-9

    def test_rejects_bad_weights(self):
        a = np.eye(3, 2, dtype=complex)
        with pytest.raises(ValueError):
            mmse(a, [1.0, 0.0], 0)
        with pytest.raises(ValueError):
            evaluate_scenario(a, [1.0, -1.0])


class TestDenseEquivalence:
    """zf() and mmse() match explicit dense projector / inverse constructions."""

    def test_projection_matches_dense(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = rng.integers(8, 65)
            n = rng.integers(1, 8)
            abar = complex_randn(rng, m, n)
            x = complex_randn(rng, m)
            dense = (np.eye(m) - abar @ np.linalg.inv(abar.conj().T @ abar) @ abar.conj().T) @ x
            dense /= np.linalg.norm(dense)
            assert zf(with_user(x, abar), 0) == pytest.approx(dense, rel=1e-9, abs=1e-9)

    def test_whitening_matches_dense_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.integers(8, 65)
            n = rng.integers(1, 8)
            abar = complex_randn(rng, m, n)
            weights = rng.uniform(0.05, 20.0, size=n)
            x = complex_randn(rng, m)
            dense = np.linalg.inv(np.eye(m) + (abar * weights) @ abar.conj().T) @ x
            dense /= np.linalg.norm(dense)
            out = mmse(with_user(x, abar), np.concatenate([[2.0], weights]), 0)
            assert out == pytest.approx(dense, rel=1e-9, abs=1e-9)


class TestCost:
    def test_large_apply_runs_in_seconds(self):
        rng = np.random.default_rng(12)
        a = with_user(complex_randn(rng, 40_000), complex_randn(rng, 40_000, 9))
        start = time.perf_counter()
        mmse(a, np.full(10, 2.0), 0)
        zf(a, 0)
        assert time.perf_counter() - start < 5.0
