"""System-model construction tests: Jacobian validation, equilibrium checks,
builtin benchmarks, geometry helpers, and the polynomial description path."""

import numpy as np
import pytest

from contragp import systems
from contragp.errors import ConfigError, DataError


class TestSystemModel:
    def test_wrong_jacobian_rejected_at_construction(self):
        with pytest.raises(DataError, match="finite differences"):
            systems.SystemModel(
                1, lambda x: 2.0 * np.asarray(x, dtype=float).reshape(-1),
                lambda x: np.array([[5.0]]), b=[1.0])

    def test_false_equilibrium_rejected(self):
        with pytest.raises(DataError, match="fixed point"):
            systems.SystemModel(
                1, lambda x: 2.0 * np.asarray(x, dtype=float).reshape(-1),
                lambda x: np.array([[2.0]]), b=[1.0], equilibrium=[1.0])

    def test_requires_exactly_one_input_spec(self):
        drift = lambda x: np.asarray(x, dtype=float).reshape(-1)
        jac = lambda x: np.eye(1)
        with pytest.raises(DataError):
            systems.SystemModel(1, drift, jac)
        with pytest.raises(DataError):
            systems.SystemModel(1, drift, jac, b=[1.0],
                                b_fun=lambda x: np.array([1.0]),
                                b_jac=lambda x: np.zeros((1, 1)))

    def test_step_applies_input(self):
        model = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        np.testing.assert_allclose(model.step([2.0, 2.0], 3.0),
                                   [1.0, 4.0])

    @pytest.mark.parametrize("name", ["oscillator", "sine1d", "linear",
                                      "polynomial", "pointwise",
                                      "varying-input"])
    def test_step_batch_matches_pointwise_step(self, name):
        poly = {"n": 2, "b": [1.0, 0.0], "rows": [
            [{"exponents": [1, 2], "coef": 3.0}],
            [{"exponents": [3, 0], "coef": -0.5},
             {"exponents": [0, 1], "coef": 0.9}]]}
        drift = lambda x: np.sin(np.asarray(x, dtype=float).reshape(-1))
        jac = lambda x: np.diag(np.cos(np.asarray(x, dtype=float).reshape(-1)))
        model = {
            "oscillator": systems.oscillator,
            "sine1d": systems.sine1d,
            "linear": lambda: systems.linear_system(
                [[0.9, 0.2], [-0.1, 0.7]], [0.0, 1.0]),
            "polynomial": lambda: systems.polynomial_system(poly),
            "pointwise": lambda: systems.SystemModel(2, drift, jac,
                                                     b=[0.0, 1.0]),
            "varying-input": lambda: systems.SystemModel(
                2, drift, jac, b_fun=lambda x: np.asarray(x) ** 2,
                b_jac=lambda x: np.diag(2.0 * np.asarray(x))),
        }[name]()
        rng = np.random.default_rng(3)
        X = rng.uniform(-2.0, 2.0, size=(7, model.n))
        U = rng.normal(size=7)
        batch = model.step_batch(X, U)
        assert batch.shape == X.shape
        for x, u, row in zip(X, U, batch):
            expected = (np.asarray(model.drift(x)) + model.input_at(x) * u)
            np.testing.assert_allclose(row, expected, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(model.step(x, u), row, rtol=1e-14,
                                       atol=1e-14)


class TestBuiltins:
    def test_oscillator_structure(self):
        osc = systems.oscillator()
        assert osc.n == 2
        np.testing.assert_allclose(osc.b, [0.0, 0.01])
        np.testing.assert_allclose(osc.drift([0.0, 0.0]), [0.0, 0.0],
                                   atol=1e-15)
        # first Jacobian row is structural: [1, dt]
        J = osc.drift_jacobian([0.7, -1.3])
        np.testing.assert_allclose(J[0], [1.0, 0.01])

    def test_oscillator_f2_helper_matches_drift(self):
        osc = systems.oscillator()
        X = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
        f2 = systems.oscillator_f2(X)
        for x, v in zip(X, f2):
            assert v == pytest.approx(osc.drift(x)[1], rel=1e-12)

    def test_sine1d(self):
        sine = systems.sine1d(dt=0.1)
        assert sine.drift([np.pi])[0] == pytest.approx(np.pi)
        assert sine.drift_jacobian([0.0])[0, 0] == pytest.approx(1.1)

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
            assert on_edge and box.contains(p)
        # all distinct
        assert len({tuple(np.round(p, 9)) for p in pts}) == 16

    def test_box_contains_with_tolerance(self):
        box = systems.Box.make([0.0], [1.0])
        assert box.contains([1.0])
        assert not box.contains([1.0 + 1e-9])
        assert box.contains([1.0 + 1e-9], tol=1e-8)

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
        np.testing.assert_allclose(model.drift([2.0, 4.0]), [1.0, 2.0])
        np.testing.assert_allclose(model.drift_jacobian([2.0, 4.0]),
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
        x = np.array([2.0, -1.5])
        np.testing.assert_allclose(model.drift(x), [3 * 2 * 2.25, -1.0])
        np.testing.assert_allclose(model.drift_jacobian(x),
                                   [[3 * 2.25, 3 * 2 * 2 * (-1.5)],
                                    [0.0, 0.0]])

    def test_malformed_spec_rejected(self):
        with pytest.raises(ConfigError):
            systems.polynomial_system({"n": 2, "b": [0.0, 1.0], "rows": [[]]})
        with pytest.raises(ConfigError):
            systems.polynomial_system({
                "n": 1, "b": [1.0],
                "rows": [[{"exponents": [-1], "coef": 1.0}]]})
