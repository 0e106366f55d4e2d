"""Kernel calculus tests: worked values, finite-difference oracles, and the
positive-definiteness / stationarity properties every family must satisfy."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from contragp.deriv_gp import DerivativeController
from contragp.drift_gp import GPComponent
from contragp.errors import DataError, DimensionError
from contragp.kernels import Kernel
from contragp.linalg import BLOCK, blockwise


def fd_grad_x2(kernel, x, y, h=1e-5):
    """Central finite differences of the kernel value in the second slot."""
    n = len(y)
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (kernel.value_outer([x], [y + e])[0, 0]
                  - kernel.value_outer([x], [y - e])[0, 0]) / (2 * h)
    return out


def fd_hess_cross(kernel, x, y, h=1e-5):
    """Central finite differences of grad_x2 in the first slot."""
    n = len(x)
    out = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (kernel.grad_x2_outer([x + e], [y])[0, 0]
                  - kernel.grad_x2_outer([x - e], [y])[0, 0]) / (2 * h)
    return out


def random_kernel(family, dim, rng):
    M = rng.normal(size=(dim, dim))
    sigma = M @ M.T + dim * np.eye(dim)
    kw = {"degree": int(rng.integers(1, 4))} if family == "polynomial" else {}
    return Kernel(family=family, beta=float(rng.uniform(0.5, 2.5)),
                  sigma=sigma, **kw)


class TestWorkedValues:
    def test_coincident_points(self):
        k = Kernel(dim=1)
        assert k.value_outer([[0.0]], [[0.0]])[0, 0] == 1.0

    def test_unit_gaussian_at_distance_one(self):
        k = Kernel(dim=1)
        assert k.value_outer([[1.0]], [[0.0]])[0, 0] == pytest.approx(
            np.exp(-0.5), rel=1e-12)

    def test_scaled_kernel(self):
        k = Kernel(beta=2.0, sigma=[[4.0]])
        assert k.value_outer([[2.0]], [[0.0]])[0, 0] == pytest.approx(
            2 * np.exp(-0.5), rel=1e-12)

    def test_grad_at_coincident_points_is_zero(self):
        k = Kernel(dim=1)
        np.testing.assert_allclose(k.grad_x2_outer([[0.0]], [[0.0]])[0, 0],
                                   [0.0])

    def test_grad_unit_distance(self):
        k = Kernel(dim=1)
        np.testing.assert_allclose(k.grad_x2_outer([[1.0]], [[0.0]])[0, 0],
                                   [np.exp(-0.5)], rtol=1e-12)

    def test_grad_two_dims(self):
        k = Kernel(dim=2)
        np.testing.assert_allclose(
            k.grad_x2_outer([[1.0, 0.0]], [[0.0, 0.0]])[0, 0],
            [np.exp(-0.5), 0.0], rtol=1e-12, atol=1e-15)

    def test_hess_at_coincident_points_is_inverse_lengthscale(self):
        k = Kernel(dim=3)
        np.testing.assert_allclose(
            k.hess_cross_outer([[0.2] * 3], [[0.2] * 3])[0, 0],
            np.eye(3), atol=1e-12)

    def test_hess_vanishes_at_unit_distance_1d(self):
        k = Kernel(dim=1)
        np.testing.assert_allclose(k.hess_cross_outer([[1.0]], [[0.0]])[0, 0],
                                   [[0.0]], atol=1e-15)

    def test_hess_coincident_scaled(self):
        k = Kernel(beta=3.0, sigma=[[0.25]])
        np.testing.assert_allclose(k.hess_cross_outer([[0.7]], [[0.7]])[0, 0],
                                   [[12.0]], rtol=1e-12)


class TestDerivativeOracles:
    @pytest.mark.parametrize("family", ["squared-exponential", "linear",
                                        "polynomial"])
    def test_grad_matches_finite_differences(self, family):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            k = random_kernel(family, dim, rng)
            x, y = rng.normal(size=dim), rng.normal(size=dim)
            fd = fd_grad_x2(k, x, y)
            scale = max(1.0, np.abs(fd).max())
            got = k.grad_x2_outer([x], [y])[0, 0]
            assert np.abs(got - fd).max() < 1e-6 * scale

    @pytest.mark.parametrize("family", ["squared-exponential", "linear",
                                        "polynomial"])
    def test_hess_matches_finite_differences(self, family):
        rng = np.random.default_rng(12)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            k = random_kernel(family, dim, rng)
            x, y = rng.normal(size=dim), rng.normal(size=dim)
            fd = fd_hess_cross(k, x, y)
            scale = max(1.0, np.abs(fd).max())
            got = k.hess_cross_outer([x], [y])[0, 0]
            assert np.abs(got - fd).max() < 1e-5 * scale

    @pytest.mark.parametrize("family", ["squared-exponential", "linear",
                                        "polynomial"])
    def test_diagonal_terms_match_pair_evaluations(self, family):
        # k(x, x) and d^2k/dx dx' at (x, x) equal the single-pair values;
        # d/dx k(x, x) matches central differences along the diagonal
        rng = np.random.default_rng(13)
        for dim in (1, 2, 3):
            k = random_kernel(family, dim, rng)
            X = rng.normal(size=(5, dim))
            value = k.diag_value(X)
            hess = k.diag_hess_cross(X)
            grad = k.diag_value_gradient(X)
            assert value.shape == (5,) and hess.shape == (5, dim, dim)
            assert grad.shape == (5, dim)
            h = 1e-6
            for b, x in enumerate(X):
                assert value[b] == pytest.approx(
                    k.value_outer([x], [x])[0, 0], rel=1e-14)
                np.testing.assert_allclose(
                    hess[b], k.hess_cross_outer([x], [x])[0, 0],
                    rtol=1e-14, atol=0.0)
                fd = np.array([(k.value_outer([x + h * e], [x + h * e])[0, 0]
                                - k.value_outer([x - h * e],
                                                [x - h * e])[0, 0]) / (2 * h)
                               for e in np.eye(dim)])
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(grad[b] - fd).max() < 1e-6 * scale


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for family in ("squared-exponential", "linear", "polynomial"):
            k = random_kernel(family, 3, rng)
            for _ in range(20):
                x, y = rng.normal(size=3), rng.normal(size=3)
                assert k.value_outer([x], [y])[0, 0] == pytest.approx(
                    k.value_outer([y], [x])[0, 0], rel=1e-12)

    def test_stationarity_of_se(self):
        rng = np.random.default_rng(22)
        k = random_kernel("squared-exponential", 2, rng)
        for _ in range(20):
            x, y, d = rng.normal(size=(3, 2))
            assert k.value_outer([x], [y])[0, 0] == pytest.approx(
                k.value_outer([x + d], [y + d])[0, 0], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("family", ["squared-exponential", "linear",
                                        "polynomial"])
    def test_gram_psd_on_random_sets(self, family):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k = random_kernel(family, 2, rng)
            X = rng.normal(size=(8, 2))
            G = k.value_outer(X, X)
            vals = np.linalg.eigvalsh(0.5 * (G + G.T))
            assert vals.min() > -1e-9 * max(1.0, vals.max())

    def test_hess_cross_coincident_is_spd_for_se(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            k = random_kernel("squared-exponential", 3, rng)
            x = rng.normal(size=3)
            H = k.hess_cross_outer([x], [x])[0, 0]
            assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 0.0


class TestWhitening:
    def test_matches_triangular_solve_reference(self):
        # the cached inverse factor and Sigma^{-1} reproduce the two
        # triangular solves for non-identity length scales
        rng = np.random.default_rng(25)
        for dim in (1, 2, 3, 5):
            k = random_kernel("squared-exponential", dim, rng)
            X, Y = rng.normal(size=(6, dim)), rng.normal(size=(4, dim))
            D, q_flat = k._diffs(X, Y.T)
            W, q = k._pairs(X, Y)
            ref_D = X[:, None, :] - Y[None, :, :]
            half = solve_triangular(k._chol, ref_D.reshape(-1, dim).T,
                                    lower=True)
            ref_q = np.sum(half * half, axis=0).reshape(6, 4)
            ref_W = solve_triangular(k._chol.T, half).T.reshape(ref_D.shape)
            np.testing.assert_array_equal(D, ref_D.reshape(-1, dim).T)
            np.testing.assert_array_equal(q, q_flat.reshape(6, 4))
            for got, want in ((W, ref_W), (q, ref_q)):
                assert (np.abs(got - want).max()
                        <= 1e-12 * np.abs(want).max())
            assert k._pairs(X, Y, weighted=False)[0] is None


def pairs_first(k, X, Y):
    """k, dk/dy and d^2k/dx dy of the squared exponential laid out
    (N, M, n), pair by pair: the formulas the pairs-last layout must
    reproduce bit for bit."""
    D = X[:, None, :] - Y[None, :, :]
    half = D @ k._chol_inv.T
    W = D @ k._sigma_inv
    value = k.beta * np.exp(-0.5 * np.sum(half * half, axis=-1))
    outer = W[..., :, None] * W[..., None, :]
    return (value, value[..., None] * W,
            value[..., None, None] * (k._sigma_inv - outer))


class TestPairsLastLayout:
    """Every squared-exponential evaluation keeps the bits of the (N, M, n)
    formulas, on identity and full length scales and on stacks below and
    above ``linalg.BLOCK``.  The 12 points keep M > 1: with one point the
    (N, M, n) products were matrix-vector products, another BLAS kernel."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(27)
        for dim in (2, 3):
            M = rng.normal(size=(dim, dim))
            for sigma in (np.eye(dim), M @ M.T + dim * np.eye(dim)):
                k = Kernel(beta=1.3, sigma=sigma)
                P = rng.uniform(-1.5, 1.5, size=(12, dim))
                for B in (7, BLOCK + 44):
                    yield k, P, rng.normal(size=(B, dim)), rng

    def test_pair_outputs(self):
        for k, P, X, _ in self.cases():
            for A, B in ((X, P), (P, X)):
                for got, want in zip((k.value_outer(A, B), k.grad_x2_outer(A, B),
                                      k.hess_cross_outer(A, B)),
                                     pairs_first(k, A, B)):
                    np.testing.assert_array_equal(got, want)

    def test_posterior_mean_and_gradient(self):
        for k, P, X, rng in self.cases():
            comp = GPComponent(k, P, rng.normal(size=len(P)), 0.1)
            w = comp.weights
            np.testing.assert_array_equal(comp.mean(X), blockwise(
                lambda Y: pairs_first(k, Y, P)[0] @ w, X))
            np.testing.assert_array_equal(comp.grad(X), blockwise(
                lambda Y: np.ascontiguousarray(pairs_first(k, P, Y)[1]
                                               .transpose(1, 0, 2))
                .transpose(0, 2, 1) @ w, X))

    def test_control_gradient(self):
        for k, P, X, rng in self.cases():
            w = rng.normal(size=P.size)
            law = DerivativeController(k, P, w)
            np.testing.assert_array_equal(
                law.control_grad_batch(X), blockwise(lambda Y: np.einsum(
                    "bNij,Nj->bi", pairs_first(k, Y, P)[2],
                    w.reshape(P.shape)), X))


class TestValidationAndSerialization:
    def test_dimension_mismatch_names_argument(self):
        k = Kernel(dim=2)
        with pytest.raises(DimensionError, match="x_prime"):
            k.value_outer([[0.0, 0.0]], [[0.0]])
        with pytest.raises(DimensionError, match="'x'"):
            k.grad_x2_outer([[0.0]], [[0.0, 0.0]])

    def test_stack_of_matrices_rejected(self):
        # a (B, n, k) stack has n as its second axis but is not a stack of
        # states; every entry point names it instead of failing inside numpy
        k = Kernel(dim=2)
        X = np.zeros((3, 2, 4))
        terms = k.contraction_terms(np.zeros((5, 2)), np.ones(10))
        for call in (lambda: k.value_outer(X, np.zeros((5, 2))),
                     lambda: k.grad_x2_outer(np.zeros((5, 2)), X),
                     lambda: k.diag_value(X),
                     lambda: k.grad_x2_contract(X, terms)):
            with pytest.raises(DimensionError):
                call()

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(DataError):
            Kernel(beta=0.0, dim=1)
        with pytest.raises(DataError):
            Kernel(sigma=[[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DataError):
            Kernel(sigma=[[-1.0]])
        with pytest.raises(DataError):
            Kernel(family="polynomial", dim=1)

    def test_json_round_trip(self):
        k = Kernel(family="polynomial", beta=1.7,
                   sigma=[[2.0, 0.3], [0.3, 1.0]], degree=3)
        k2 = Kernel.from_dict(k.to_dict())
        assert k2.family == k.family
        assert k2.beta == k.beta
        assert k2.degree == k.degree
        np.testing.assert_array_equal(k2.sigma, k.sigma)
