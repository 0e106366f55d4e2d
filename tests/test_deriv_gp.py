"""Derivative-data regression tests: Gram assembly, hand-solved fits, the
interpolation and linearity properties, and the regularized-fit stationarity
oracle."""

import numpy as np
import pytest

from contragp import deriv_gp
from contragp.errors import DataError, DimensionError, FactorizationError
from contragp.kernels import Kernel
from contragp.linalg import BLOCK


def fit_objective_gradient(K0, sigma_p, y, h):
    """Gradient of |y - K0 h|^2_{K0^{-1}} + sigma_p^2 |h|^2 (the regularized
    fitting objective); simplifies to -2 (y - K0 h) + 2 sigma_p^2 h."""
    return -2.0 * (y - K0 @ h) + 2.0 * sigma_p ** 2 * h


class TestGram:
    def test_single_point_gram(self):
        K = deriv_gp.build_gram_K0(Kernel(dim=1), np.array([[0.0]]))
        np.testing.assert_allclose(K, [[1.0]])

    def test_two_point_unit_spacing_gram_is_identity(self):
        K = deriv_gp.build_gram_K0(Kernel(dim=1), np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(K, np.eye(2), atol=1e-15)

    def test_gram_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        K = deriv_gp.build_gram_K0(Kernel(beta=1.3, sigma=np.diag([2.0, 0.7])), X)
        np.testing.assert_array_equal(K, K.T)


class TestFit:
    def test_hand_solved_single_point(self):
        # one gradient observation -2 at the origin: weights solve the 1x1
        # system exactly, and the law is -2 x exp(-x^2 / 2)
        ds = deriv_gp.DerivativeDataset([[0.0]], [[-2.0]], 0.0)
        c = deriv_gp.fit(Kernel(dim=1), ds)
        np.testing.assert_allclose(c.weights, [-2.0], rtol=1e-12)
        assert c.control_batch([[1.0]])[0] == pytest.approx(
            -2 * np.exp(-0.5), rel=1e-12)
        np.testing.assert_allclose(c.control_grad_batch([[0.0]])[0], [-2.0],
                                   rtol=1e-12)

    def test_zero_targets_give_zero_law(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(4, 2))
        c = deriv_gp.fit(Kernel(dim=2),
                         deriv_gp.DerivativeDataset(X, np.zeros((4, 2)), 0.0))
        np.testing.assert_array_equal(c.weights, np.zeros(8))
        assert c.control_batch([rng.normal(size=2)])[0] == 0.0
        np.testing.assert_array_equal(
            c.control_grad_batch([rng.normal(size=2)])[0], np.zeros(2))

    def test_noise_free_gradient_interpolation(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5, 2))
        T = rng.normal(size=(5, 2))
        c = deriv_gp.fit(Kernel(dim=2), deriv_gp.DerivativeDataset(X, T, 0.0))
        G = c.control_grad_batch(X)
        assert np.abs(G - T).max() < 1e-8

    def test_nan_targets_rejected(self):
        with pytest.raises(DataError):
            deriv_gp.DerivativeDataset([[0.0]], [[np.nan]], 0.0)

    def test_weight_solve_residual_recorded_and_small(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(6, 2))
        T = rng.normal(size=(6, 2))
        ds = deriv_gp.DerivativeDataset(X, T, 0.05)
        c = deriv_gp.fit(Kernel(dim=2), ds)
        y = ds.stacked_targets()
        assert c.diagnostics["residual"] < 1e-8 * (1 + np.linalg.norm(y))

    def test_singular_gram_advises_jitter(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0]])
        ds = deriv_gp.DerivativeDataset(X, np.ones((2, 2)), 0.0)
        with pytest.raises(FactorizationError, match="jitter"):
            deriv_gp.fit(Kernel(dim=2), ds, jitter=0.0)

    def test_evaluation_linear_in_targets(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(6, 2))
        Y1 = rng.normal(size=(6, 2))
        Y2 = rng.normal(size=(6, 2))
        a, b = 0.7, -1.9
        k = Kernel(dim=2)
        c1 = deriv_gp.fit(k, deriv_gp.DerivativeDataset(X, Y1, 0.1))
        c2 = deriv_gp.fit(k, deriv_gp.DerivativeDataset(X, Y2, 0.1))
        c3 = deriv_gp.fit(k, deriv_gp.DerivativeDataset(X, a * Y1 + b * Y2, 0.1))
        for x in rng.normal(size=(10, 2)):
            lin = a * c1.control_batch([x])[0] + b * c2.control_batch([x])[0]
            assert abs(c3.control_batch([x])[0] - lin) < 1e-9
            lin_g = (a * c1.control_grad_batch([x])[0]
                     + b * c2.control_grad_batch([x])[0])
            assert np.abs(c3.control_grad_batch([x])[0] - lin_g).max() < 1e-9

    @pytest.mark.parametrize("sigma_p", [0.01, 0.1])
    def test_regularized_fit_stationarity(self, sigma_p):
        rng = np.random.default_rng(7)
        k = Kernel(dim=2)
        for _ in range(20):
            X = rng.normal(size=(5, 2)) * 1.5
            T = rng.normal(size=(5, 2))
            ds = deriv_gp.DerivativeDataset(X, T, sigma_p)
            c = deriv_gp.fit(k, ds)
            K0 = deriv_gp.build_gram_K0(k, X)
            y = ds.stacked_targets()
            g = fit_objective_gradient(K0, sigma_p, y, c.weights)
            assert np.linalg.norm(g) < 1e-8 * (1.0 + np.linalg.norm(y))

    def test_gradient_is_exact_gradient_of_value(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 2))
        T = rng.normal(size=(5, 2))
        c = deriv_gp.fit(Kernel(dim=2), deriv_gp.DerivativeDataset(X, T, 0.0))
        h = 1e-5
        for x in rng.normal(size=(50, 2)):
            fd = np.array([
                (c.control_batch([x + h * np.eye(2)[i]])[0]
                 - c.control_batch([x - h * np.eye(2)[i]])[0])
                / (2 * h) for i in range(2)])
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(c.control_grad_batch([x])[0] - fd).max() < 1e-6 * scale


class TestBlockwiseEvaluation:
    def test_long_stack_matches_one_row_calls(self):
        # stacks longer than linalg.BLOCK are evaluated block by block
        rng = np.random.default_rng(11)
        ds = deriv_gp.DerivativeDataset(rng.normal(size=(4, 2)),
                                        rng.normal(size=(4, 2)), 0.0)
        c = deriv_gp.fit(Kernel(dim=2), ds)
        X = rng.normal(size=(600, 2))
        u, g = c.control_batch(X), c.control_grad_batch(X)
        assert u.shape == (600,) and g.shape == (600, 2)
        np.testing.assert_allclose(u, [c.control_batch([x])[0] for x in X],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            g, [c.control_grad_batch([x])[0] for x in X],
            rtol=1e-12, atol=1e-12)


class TestContractionForm:
    """The law's values, sum_j dk(x, y_j)/dy_j . w_j, against the
    contraction of the full (B, N, n) gradient rows."""

    SIGMAS = {
        "full": [[0.8, 0.2], [0.2, 0.5]],
        "diagonal": [[1.5, 0.0], [0.0, 0.4]],
        "isotropic": [[0.6, 0.0], [0.0, 0.6]],
    }

    @pytest.mark.parametrize("shape", sorted(SIGMAS))
    def test_matches_gradient_rows(self, shape):
        rng = np.random.default_rng(17)
        kernel = Kernel(beta=1.3, sigma=self.SIGMAS[shape])
        Y = rng.uniform(-2.0, 2.0, size=(9, 2))
        w = rng.normal(size=18) * 10.0 ** rng.integers(-2, 5, 18)
        law = deriv_gp.DerivativeController(kernel, Y, w)
        # random states, the design points and states 1e-9 from them
        X = np.vstack([rng.uniform(-3.0, 3.0, size=(40, 2)), Y, Y + 1e-9])
        terms = kernel.grad_x2_outer(X, Y).reshape(len(X), -1) * w
        ref, scale = terms.sum(axis=1), np.abs(terms).sum(axis=1)
        assert np.all(np.abs(law.control_batch(X) - ref) <= 1e-9 * scale)
        x_star = np.array([0.3, -0.7])
        assert law.with_offset_at(x_star).control_batch([x_star])[0] == 0.0

    @pytest.mark.parametrize("rows", [1, BLOCK + 1])
    def test_wrong_width_rejected(self, rows):
        # the law checks its stack once, below and above one block
        kernel = Kernel(dim=2)
        points = [[0.0, 0.0], [1.0, 0.5]]
        law = deriv_gp.DerivativeController(kernel, points, np.ones(4))
        X = np.zeros((rows, 3))
        with pytest.raises(DimensionError, match="'x'"):
            law.control_batch(X)
        with pytest.raises(DimensionError, match="'x'"):
            kernel.grad_x2_contract(
                X, kernel.contraction_terms(points, np.ones(4)))


class TestOffsetAndSerialization:
    def test_offset_mode_zeroes_control_at_anchor(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 2))
        T = rng.normal(size=(4, 2))
        c = deriv_gp.fit(Kernel(dim=2), deriv_gp.DerivativeDataset(X, T, 0.0))
        x_star = np.array([0.3, -0.4])
        c2 = c.with_offset_at(x_star)
        assert c2.control_batch([x_star])[0] == 0.0
        np.testing.assert_array_equal(c2.control_grad_batch([x_star])[0],
                                      c.control_grad_batch([x_star])[0])

    def test_artifact_round_trip_bit_exact(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(4, 2))
        T = rng.normal(size=(4, 2))
        c = deriv_gp.fit(Kernel(dim=2), deriv_gp.DerivativeDataset(X, T, 0.0))
        c = c.with_offset_at(np.zeros(2))
        c.metric = np.array([[2.0, 0.1], [0.1, 1.0]])
        import json

        payload = json.loads(json.dumps(c.to_dict()))
        c2 = deriv_gp.DerivativeController.from_dict(payload)
        np.testing.assert_array_equal(c.weights, c2.weights)
        np.testing.assert_array_equal(c.points, c2.points)
        assert c.offset == c2.offset
        np.testing.assert_array_equal(c.metric, c2.metric)
        x = rng.normal(size=2)
        assert c.control_batch([x])[0] == c2.control_batch([x])[0]
