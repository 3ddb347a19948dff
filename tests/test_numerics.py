import numpy as np
import pytest

from quantlab.errors import DimensionMismatch, NotPositiveDefinite, NotPowerOfTwo
from quantlab.numerics import (
    cholesky,
    hadamard,
    invert_spd,
    is_power_of_two,
    solve_lower,
)
from quantlab.quantcore import fit_params
from quantlab.rng import make_rng
from quantlab.weightquant import default_weight_spec


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(4)), np.eye(4))

    def test_2x2_closed_form(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expect = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.max(np.abs(L - expect)) < 1e-12

    def test_reconstruction_random_spd(self):
        rng = make_rng(1)
        b = rng.standard_normal((8, 8))
        a = b.T @ b + np.eye(8)
        L = cholesky(a)
        assert np.max(np.abs(L @ L.T - a)) <= 1e-10 * max(np.max(np.abs(a)), 1.0)
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_not_positive_definite_reports_pivot(self):
        a = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(a)
        assert exc.value.pivot == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_solve_lower(self):
        rng = make_rng(2)
        b = rng.standard_normal((6, 6))
        a = b.T @ b + np.eye(6)
        L = cholesky(a)
        rhs = rng.standard_normal(6)
        x = solve_lower(L, rhs)
        assert np.max(np.abs(L @ x - rhs)) < 1e-10


class TestInvertSpd:
    def test_identity(self):
        assert np.allclose(invert_spd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(invert_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_random_spd(self):
        rng = make_rng(3)
        b = rng.standard_normal((16, 16))
        a = b.T @ b + np.eye(16)
        assert np.max(np.abs(a @ invert_spd(a) - np.eye(16))) <= 1e-8


class TestHadamard:
    def test_n1(self):
        h = hadamard(1)
        assert np.array_equal(h.matrix, np.array([[1.0]]))

    def test_n2_base_case(self):
        h = hadamard(2)
        expect = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.max(np.abs(h.matrix - expect)) < 1e-15

    def test_randomized_orthogonality(self):
        h = hadamard(64, randomize=True, rng=make_rng(4))
        assert np.max(np.abs(h.matrix @ h.matrix.T - np.eye(64))) <= 1e-10
        assert set(np.unique(h.sign_diag)) <= {-1.0, 1.0}

    def test_round_trip_vector(self):
        h = hadamard(128, randomize=True, rng=make_rng(5))
        x = make_rng(6).standard_normal(128)
        back = (x @ h.matrix) @ h.matrix.T
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_non_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            hadamard(48)

    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(64)
        assert not is_power_of_two(0) and not is_power_of_two(48)


class TestHeadRotation:
    """``HadamardMatrix.apply``/``unapply`` as rotated KV runs them on the
    rows of each head."""

    def test_rotate_unrotate_identity(self):
        rng = make_rng(9)
        h = hadamard(64, randomize=True, rng=rng)
        kv = rng.standard_normal((8, 64))
        back = h.unapply(h.apply(kv))
        assert np.max(np.abs(back - kv)) <= 1e-11

    def test_outlier_ranges_shrink_after_rotation(self):
        rng = make_rng(10)
        kv = rng.standard_normal((32, 64))
        kv[:, 5] *= 100.0
        h = hadamard(64, randomize=True, rng=rng)
        spec = default_weight_spec(4, group_size=64)
        s_plain = fit_params(kv, spec).scales
        s_rot = fit_params(h.apply(kv), spec).scales
        assert np.all(s_rot <= s_plain)

    def test_non_power_of_two_head_dim(self):
        with pytest.raises(NotPowerOfTwo):
            hadamard(48)
        with pytest.raises(DimensionMismatch):
            hadamard(64).apply(np.zeros((2, 48)))
