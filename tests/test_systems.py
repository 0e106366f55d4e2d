"""System-model construction tests: Jacobian validation, equilibrium checks,
the stacked model contract, builtin benchmarks, geometry helpers, and the
polynomial description path."""

import numpy as np
import pytest

from contragp import drift_gp, systems
from contragp.errors import ConfigError, DataError, DimensionError
from contragp.kernels import Kernel


def _diag_stack(V):
    """Stack of diagonal matrices with the rows of V on their diagonals."""
    return V[:, :, None] * np.eye(V.shape[1])


def _sine_model(b):
    """f(x) = sin(x) entrywise on R^2, built from stacked callables."""
    return systems.SystemModel(2, np.sin, lambda X: _diag_stack(np.cos(X)),
                               b=b)


_POLY = {"n": 2, "b": [1.0, 0.0], "rows": [
    [{"exponents": [1, 2], "coef": 3.0}],
    [{"exponents": [3, 0], "coef": -0.5},
     {"exponents": [0, 1], "coef": 0.9}]]}


def _fitted_model():
    """A learned oscillator drift, fixed first row and a GP second row."""
    rng = np.random.default_rng(11)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    Y = np.column_stack([X[:, 0] + 0.01 * X[:, 1], systems.oscillator_f2(X)])
    model = drift_gp.fit_drift(
        drift_gp.DriftDataset(X, Y, sigma_y=[0.0, 0.01]), Kernel(dim=2),
        fixed={0: drift_gp.FixedAffineComponent([1.0, 0.01])})
    return model.as_system_model(b=[0.0, 0.01])


MODELS = {
    "oscillator": systems.oscillator,
    "sine1d": systems.sine1d,
    "linear": lambda: systems.linear_system([[0.9, 0.2], [-0.1, 0.7]],
                                            [0.0, 1.0]),
    "polynomial": lambda: systems.polynomial_system(_POLY),
    # both entries of b nonzero, so that a misplaced input term shows
    "oblique-input": lambda: _sine_model(b=[0.6, -0.8]),
    "learned": _fitted_model,
}


class TestSystemModel:
    def test_wrong_jacobian_rejected_at_construction(self):
        with pytest.raises(DataError, match="finite differences"):
            systems.SystemModel(
                1, lambda X: 2.0 * X, lambda X: np.full((len(X), 1, 1), 5.0),
                b=[1.0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_wrong_jacobian_off_the_axes_rejected(self, n, monkeypatch):
        # the term (x_1 ... x_n)^2 has a gradient that vanishes wherever a
        # coordinate is 0: the origin and axis probes miss a Jacobian that
        # leaves it out, the generic probes must not
        def drift(X):
            return 0.5 * X + np.prod(X, axis=1, keepdims=True) ** 2

        def jacobian(X):
            return np.broadcast_to(0.5 * np.eye(n), (len(X), n, n))

        with pytest.raises(DataError, match="finite differences"):
            systems.SystemModel(n, drift, jacobian, b=np.eye(n)[0])
        probes = systems.SystemModel._probe_states
        monkeypatch.setattr(systems.SystemModel, "_probe_states",
                            lambda self: probes(self)[:1 + 2 * n])
        systems.SystemModel(n, drift, jacobian, b=np.eye(n)[0])

    def test_false_equilibrium_rejected(self):
        with pytest.raises(DataError, match="fixed point"):
            systems.SystemModel(
                1, lambda X: 2.0 * X, lambda X: np.full((len(X), 1, 1), 2.0),
                b=[1.0], equilibrium=[1.0])

    @pytest.mark.parametrize("b", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]] * 2],
                             ids=["short", "long", "matrix"])
    def test_input_vector_must_have_length_n(self, b):
        with pytest.raises(DimensionError, match="'b'"):
            _sine_model(b=b)

    def test_step_applies_input(self):
        model = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        np.testing.assert_allclose(model.step([[2.0, 2.0]], [3.0])[0],
                                   [1.0, 4.0])

    @pytest.mark.parametrize("name", ["oscillator", "sine1d", "linear",
                                      "polynomial", "pointwise",
                                      "oblique-input"])
    def test_step_batch_matches_pointwise_step(self, name):
        model = {**MODELS,
                 "pointwise": lambda: _sine_model(b=[0.0, 1.0])}[name]()
        rng = np.random.default_rng(3)
        X = rng.uniform(-2.0, 2.0, size=(7, model.n))
        U = rng.normal(size=7)
        batch = model.step(X, U)
        assert batch.shape == X.shape
        for i, (u, row) in enumerate(zip(U, batch)):
            x = X[i:i + 1]
            expected = model.drift(x)[0] + model.b * u
            np.testing.assert_allclose(row, expected, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(model.step(x, [u])[0], row,
                                       rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", sorted(MODELS))
class TestModelContract:
    """Every model evaluates drift, drift Jacobian and step on stacks of
    states (B, n), with one constant input vector b of shape (n,)."""

    @staticmethod
    def _stack(model):
        return np.random.default_rng(21).uniform(-2.0, 2.0,
                                                 size=(9, model.n))

    @staticmethod
    def _methods(model):
        U = np.linspace(-1.0, 1.0, 9)
        return {"drift": model.drift, "drift_jacobian": model.drift_jacobian,
                "step": lambda X: model.step(X, U[:len(X)])}

    def test_stacked_shapes(self, name):
        model = MODELS[name]()
        X = self._stack(model)
        B, n = X.shape
        want = {"drift": (B, n), "drift_jacobian": (B, n, n),
                "step": (B, n)}
        for method, fn in self._methods(model).items():
            assert np.shape(fn(X)) == want[method], method
        assert model.b.shape == (n,)

    def test_jacobian_matches_central_differences(self, name):
        model = MODELS[name]()
        X = self._stack(model)
        h = 1e-6
        fd = np.stack([(model.drift(X + h * e) - model.drift(X - h * e))
                       / (2 * h) for e in np.eye(model.n)], axis=2)
        J = model.drift_jacobian(X)
        np.testing.assert_allclose(J, fd, rtol=0.0,
                                   atol=1e-6 * max(1.0, np.abs(J).max()))

    def test_rows_match_one_row_calls(self, name):
        model = MODELS[name]()
        X = self._stack(model)
        U = np.linspace(-1.0, 1.0, 9)
        for method, fn in self._methods(model).items():
            stacked = np.asarray(fn(X))
            for i in range(len(X)):
                one = fn(X[i:i + 1]) if method != "step" else model.step(
                    X[i:i + 1], U[i:i + 1])
                np.testing.assert_allclose(stacked[i], np.asarray(one)[0],
                                           rtol=1e-12, atol=1e-12,
                                           err_msg=method)


class TestBuiltins:
    def test_oscillator_structure(self):
        osc = systems.oscillator()
        assert osc.n == 2
        np.testing.assert_allclose(osc.b, [0.0, 0.01])
        np.testing.assert_allclose(osc.drift(np.zeros((1, 2)))[0], [0.0, 0.0],
                                   atol=1e-15)
        # first Jacobian row is structural: [1, dt]
        J = osc.drift_jacobian(np.array([[0.7, -1.3]]))[0]
        np.testing.assert_allclose(J[0], [1.0, 0.01])

    def test_oscillator_f2_helper_matches_drift(self):
        osc = systems.oscillator()
        X = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
        f2 = systems.oscillator_f2(X)
        for x, v in zip(X, f2):
            assert v == pytest.approx(osc.drift(x[None])[0, 1], rel=1e-12)

    def test_drift_keeps_the_bits_of_its_column_form(self):
        # data.csv and the rollouts depend on these bits
        X = np.random.default_rng(1).uniform(-3, 3, size=(50, 2))
        want = np.column_stack([X[:, 0] + X[:, 1] * 0.01,
                                systems.oscillator_f2(X)])
        assert np.array_equal(systems.oscillator().drift(X), want)

    def test_sine1d(self):
        sine = systems.sine1d(dt=0.1)
        assert sine.drift(np.array([[np.pi]]))[0, 0] == pytest.approx(np.pi)
        assert sine.drift_jacobian(np.zeros((1, 1)))[0, 0, 0] == pytest.approx(
            1.1)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            systems.builtin_system("pendulum")


class TestGeometry:
    def test_grid_points_order_and_bounds(self):
        box = systems.Box.make([0.0, -1.0], [1.0, 1.0])
        pts = systems.grid_points(box, 3)
        assert pts.shape == (9, 2)
        np.testing.assert_allclose(pts[0], [0.0, -1.0])
        np.testing.assert_allclose(pts[-1], [1.0, 1.0])
        # first axis varies slowest
        np.testing.assert_allclose(pts[:3, 0], 0.0)

    def test_boundary_states_lie_on_boundary(self):
        box = systems.Box.make([-2.0, -2.0], [2.0, 2.0])
        pts = systems.boundary_states(box, 16)
        assert pts.shape == (16, 2)
        for p in pts:
            on_edge = (abs(abs(p[0]) - 2.0) < 1e-12
                       or abs(abs(p[1]) - 2.0) < 1e-12)
            assert on_edge and box.contains_rows(p[None])[0]
        # all distinct
        assert len({tuple(np.round(p, 9)) for p in pts}) == 16

    def test_box_contains_with_tolerance(self):
        box = systems.Box.make([0.0], [1.0])
        assert box.contains_rows([[1.0]])[0]
        assert not box.contains_rows([[1.0 + 1e-9]])[0]
        assert box.contains_rows([[1.0 + 1e-9]], tol=1e-8)[0]

    def test_degenerate_box_rejected(self):
        with pytest.raises(DataError):
            systems.Box.make([0.0], [0.0])


class TestPolynomialSystems:
    def test_linear_via_polynomial_description(self):
        spec = {
            "n": 2,
            "b": [0.0, 1.0],
            "rows": [
                [{"exponents": [1, 0], "coef": 0.5}],
                [{"exponents": [0, 1], "coef": 0.5}],
            ],
        }
        model = systems.polynomial_system(spec)
        x = np.array([[2.0, 4.0]])
        np.testing.assert_allclose(model.drift(x)[0], [1.0, 2.0])
        np.testing.assert_allclose(model.drift_jacobian(x)[0],
                                   0.5 * np.eye(2))

    def test_cross_terms_and_jacobian(self):
        spec = {
            "n": 2,
            "b": [1.0, 0.0],
            "rows": [
                [{"exponents": [1, 2], "coef": 3.0}],   # 3 x1 x2^2
                [{"exponents": [0, 0], "coef": -1.0}],  # constant
            ],
        }
        model = systems.polynomial_system(spec)
        x = np.array([[2.0, -1.5]])
        np.testing.assert_allclose(model.drift(x)[0], [3 * 2 * 2.25, -1.0])
        np.testing.assert_allclose(model.drift_jacobian(x)[0],
                                   [[3 * 2.25, 3 * 2 * 2 * (-1.5)],
                                    [0.0, 0.0]])

    def test_malformed_spec_rejected(self):
        with pytest.raises(ConfigError):
            systems.polynomial_system({"n": 2, "b": [0.0, 1.0], "rows": [[]]})
        with pytest.raises(ConfigError):
            systems.polynomial_system({
                "n": 1, "b": [1.0],
                "rows": [[{"exponents": [-1], "coef": 1.0}]]})
