"""Drift-model learning tests: interpolation, gradient oracles, closed-form
posterior variances, variance monotonicity, and the input-augmented variant."""

import numpy as np
import pytest
from scipy.linalg import cho_solve

from contragp import drift_gp, systems
from contragp.errors import DataError
from contragp.kernels import Kernel


class TestFit:
    def test_single_point_interpolation(self):
        ds = drift_gp.DriftDataset([[0.0]], [[3.0]], sigma_y=0.0)
        m = drift_gp.fit_drift(ds, Kernel(dim=1))
        assert m.mean([[0.0]])[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_zero_targets(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        m = drift_gp.fit_drift(drift_gp.DriftDataset(X, np.zeros((5, 2))),
                               Kernel(dim=2))
        x = rng.normal(size=(1, 2))
        np.testing.assert_array_equal(m.mean(x)[0], np.zeros(2))
        np.testing.assert_array_equal(m.jacobian(x)[0], np.zeros((2, 2)))

    def test_noiseless_interpolation_at_all_training_points(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 2))
        m = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.0), Kernel(dim=2))
        for x, y in zip(X, Y):
            np.testing.assert_allclose(m.mean(x[None])[0], y, atol=1e-8)

    def test_oscillator_second_component_interior_error(self):
        # learned mean tracks the analytic drift component well inside the
        # data region; edge degradation is expected and not asserted
        pts = systems.grid_points(systems.Box.make([-3, -3], [3, 3]), 11)
        rng = np.random.default_rng(7)
        f2 = systems.oscillator_f2(pts)
        ys = np.stack([pts[:, 0], f2 + 0.01 * rng.standard_normal(len(pts))],
                      axis=1)
        model = drift_gp.fit_drift(
            drift_gp.DriftDataset(pts, ys, sigma_y=[0.0, 0.01]),
            Kernel(dim=2),
            fixed={0: drift_gp.FixedAffineComponent([1.0, 0.01])})
        interior = systems.grid_points(systems.Box.make([-2, -2], [2, 2]), 21)
        err = (model.components[1].mean(interior)
               - systems.oscillator_f2(interior))
        assert np.abs(err).max() < 0.05 * np.abs(f2).max()


class TestGradients:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 2))
        m = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.05), Kernel(dim=2))
        h = 1e-5
        X = rng.normal(size=(50, 2))
        Js = m.jacobian(X)
        fds = np.stack([(m.mean(X + h * e) - m.mean(X - h * e)) / (2 * h)
                        for e in np.eye(2)], axis=2)
        for J, fd in zip(Js, fds):
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(J - fd).max() < 1e-6 * scale

    @pytest.mark.parametrize("family", ["linear", "polynomial"])
    def test_dot_product_kernel_gradient_matches_finite_differences(
            self, family):
        # these kernels are not stationary: dk(x, p)/dx is not the negated
        # dk(x, p)/dp, so the gradient must differentiate the first slot
        rng = np.random.default_rng(4)
        kw = {"degree": 3} if family == "polynomial" else {}
        kernel = Kernel(family=family, beta=0.5,
                        sigma=[[0.8, 0.1], [0.1, 0.5]], **kw)
        comp = drift_gp.GPComponent(kernel, rng.normal(size=(10, 2)),
                                    rng.normal(size=10), 0.1)
        X = rng.normal(size=(20, 2))
        h = 1e-6
        fd = np.stack([(comp.mean(X + h * e) - comp.mean(X - h * e)) / (2 * h)
                       for e in np.eye(2)], axis=1)
        np.testing.assert_allclose(comp.grad(X), fd, rtol=1e-6,
                                   atol=1e-6 * np.abs(fd).max())

    def test_long_stack_rows_keep_one_row_bits(self):
        # stacks longer than linalg.BLOCK are evaluated block by block; each
        # gradient row keeps the bits of its one-row call
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 2))
        m = drift_gp.fit_drift(
            drift_gp.DriftDataset(X, rng.normal(size=(8, 2)), 0.05),
            Kernel(dim=2))
        Z = rng.normal(size=(600, 2))
        for comp in m.components:
            np.testing.assert_array_equal(
                comp.grad(Z), np.concatenate([comp.grad(z[None]) for z in Z]))
            np.testing.assert_allclose(
                comp.mean(Z), np.concatenate([comp.mean(z[None]) for z in Z]),
                rtol=1e-12, atol=1e-12)

    def test_single_unit_weight_gradient_closed_form(self):
        # one data point at the origin with unit weight: the mean is
        # exp(-|x|^2/2) and its gradient row is -x^T exp(-|x|^2/2)
        comp = drift_gp.GPComponent(Kernel(dim=2), np.zeros((1, 2)), [1.0], 0.0)
        comp.weights = np.array([1.0])
        x = np.array([0.4, -1.1])
        expected = -x * np.exp(-0.5 * x @ x)
        np.testing.assert_allclose(comp.grad(x[None])[0], expected,
                                   rtol=1e-10)


class TestVariances:
    def test_zero_at_noiseless_training_point(self):
        ds = drift_gp.DriftDataset([[0.5]], [[1.0]], sigma_y=0.0)
        m = drift_gp.fit_drift(ds, Kernel(dim=1))
        assert m.components[0].value_variance([[0.5]])[0] == pytest.approx(0.0, abs=1e-10)

    def test_prior_variance_without_data(self):
        comp = drift_gp.GPComponent(Kernel(beta=1.7, sigma=[[1.0]]),
                                    np.zeros((0, 1)), [], 0.0)
        assert comp.value_variance([[0.3]])[0] == pytest.approx(1.7)

    def test_closed_form_single_point_posterior(self):
        # N=1 at the origin, noiseless: v(x,x) = 1 - exp(-x^2)
        ds = drift_gp.DriftDataset([[0.0]], [[3.0]], sigma_y=0.0)
        m = drift_gp.fit_drift(ds, Kernel(dim=1))
        assert m.components[0].value_variance([[1.0]])[0] == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-10)

    def test_adding_data_never_increases_variance(self):
        rng = np.random.default_rng(4)
        k = Kernel(dim=2)
        for _ in range(10):
            X = rng.normal(size=(5, 2))
            Y = rng.normal(size=(5, 1))
            extra_x = rng.normal(size=(1, 2))
            base = drift_gp.fit_drift(
                drift_gp.DriftDataset(X, Y, 0.1), k)
            bigger = drift_gp.fit_drift(
                drift_gp.DriftDataset(np.vstack([X, extra_x]),
                                      np.vstack([Y, rng.normal(size=(1, 1))]),
                                      0.1), k)
            for x in rng.normal(size=(5, 2)):
                assert (bigger.components[0].value_variance(x[None])[0]
                        <= base.components[0].value_variance(x[None])[0]
                        + 1e-9)

    def test_jacobian_row_covariance_psd(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 1))
        m = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.05), Kernel(dim=2))
        for x in rng.normal(size=(15, 2)):
            V = m.components[0].jac_variance(x[None])[0]
            np.testing.assert_allclose(V, V.T, atol=1e-12)
            assert np.linalg.eigvalsh(V).min() > -1e-10

    def test_variances_interface(self):
        ds = drift_gp.DriftDataset([[0.0]], [[3.0]], sigma_y=0.0)
        m = drift_gp.fit_drift(ds, Kernel(dim=1))
        sd = m.value_std([[1.0]])
        assert sd.shape == (1, 1)
        assert sd[0, 0] == pytest.approx(np.sqrt(1.0 - np.exp(-1.0)), rel=1e-8)


# ---------------------------------------------------------------------------
# the per-state posterior formulas the stacked methods replaced, kept as the
# reference of the stacked contract


def ref_value_variance(comp, x):
    if comp.fixed:
        return 0.0
    kv = comp.kernel.value_outer(comp.points, x[None])[:, 0]
    v = (comp.kernel.value_outer([x], [x])[0, 0]
         - float(kv @ cho_solve((comp._chol, True), kv)))
    return max(v, 0.0)


def ref_jac_variance(comp, x):
    if comp.fixed:
        return np.zeros((x.shape[0], x.shape[0]))
    Gx = np.stack([comp.kernel.grad_x2_outer([xj], [x])[0, 0]
                   for xj in comp.points], axis=1)
    V = (comp.kernel.hess_cross_outer([x], [x])[0, 0]
         - Gx @ cho_solve((comp._chol, True), Gx.T))
    return 0.5 * (V + V.T)


def ref_diag_value_gradient(kernel, x):
    if kernel.family == "squared-exponential":
        return np.zeros(kernel.dim)
    Sx = kernel._sigma_inv @ x
    if kernel.family == "linear":
        return 2.0 * kernel.beta * Sx
    q = float(x @ Sx)
    return 2.0 * kernel.beta * kernel.degree * (q + 1.0) ** (kernel.degree - 1) * Sx


def ref_variance_total_gradient(comp, x):
    if comp.fixed:
        return np.zeros(x.shape[0])
    kv = comp.kernel.value_outer(comp.points, x[None])[:, 0]
    alpha = cho_solve((comp._chol, True), kv)
    dkv = comp.kernel.grad_x2_outer(comp.points, x[None])[:, 0, :]
    return ref_diag_value_gradient(comp.kernel, x) - 2.0 * (alpha @ dkv)


def prior_scale(model, X):
    """Largest prior value or cross-Hessian entry at the states."""
    return max(max(c.kernel.value_outer([x], [x])[0, 0],
                   float(np.abs(c.kernel.hess_cross_outer([x],
                                                          [x])).max()))
               for c in model.components if not c.fixed for x in X)


def contract_models():
    """Fitted models of every kind the stacked contract covers, with a
    stack of states away from the training points."""
    rng = np.random.default_rng(31)
    P = rng.uniform(-1.5, 1.5, size=(12, 2))
    Y = rng.normal(size=(12, 2))
    X = rng.uniform(-2.0, 2.0, size=(9, 2))
    se = Kernel(sigma=[[0.8, 0.1], [0.1, 0.5]])
    return X, {
        "se": drift_gp.fit_drift(drift_gp.DriftDataset(P, Y, [0.05, 0.01]),
                                 se),
        "polynomial": drift_gp.fit_drift(
            drift_gp.DriftDataset(P, Y, [0.1, 0.02]),
            Kernel(family="polynomial", degree=4, beta=0.5, dim=2)),
        "input-product": drift_gp.fit_drift_with_input(
            drift_gp.DriftDataset(P, Y, [0.05, 0.01],
                                  inputs=rng.normal(size=12)), se)[0],
        "fixed-row": drift_gp.fit_drift(
            drift_gp.DriftDataset(P, Y, [0.0, 0.05]), se,
            fixed={0: drift_gp.FixedAffineComponent([1.0, 0.01])}),
    }


class TestStackedPosterior:
    @pytest.mark.parametrize("name", ["se", "polynomial", "input-product",
                                      "fixed-row"])
    def test_rows_match_per_state_formulas(self, name):
        X, models = contract_models()
        model = models[name]
        tol = 1e-11 * prior_scale(model, X)
        for comp in model.components:
            vv = comp.value_variance(X)
            jv = comp.jac_variance(X)
            vg = comp.variance_total_gradient(X)
            assert vv.shape == (9,) and jv.shape == (9, 2, 2)
            assert vg.shape == (9, 2)
            for b, x in enumerate(X):
                assert abs(vv[b] - ref_value_variance(comp, x)) <= tol
                assert np.abs(jv[b] - ref_jac_variance(comp, x)).max() <= tol
                assert (np.abs(vg[b] - ref_variance_total_gradient(comp, x))
                        .max() <= tol)
        sd = model.value_std(X)
        assert sd.shape == (9, 2)
        ref_sd = np.array([[np.sqrt(ref_value_variance(c, x))
                            for c in model.components] for x in X])
        assert np.abs(sd - ref_sd).max() <= tol

    def test_fixed_row_has_no_posterior_spread(self):
        X, models = contract_models()
        fixed = models["fixed-row"].components[0]
        np.testing.assert_array_equal(fixed.value_variance(X), np.zeros(9))
        np.testing.assert_array_equal(fixed.jac_variance(X),
                                      np.zeros((9, 2, 2)))
        np.testing.assert_array_equal(fixed.variance_total_gradient(X),
                                      np.zeros((9, 2)))


class TestInputAugmented:
    def test_zero_inputs_reduce_to_plain_fit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 1))
        Y = rng.normal(size=(5, 1))
        ds0 = drift_gp.DriftDataset(X, Y, 0.1)
        dsu = drift_gp.DriftDataset(X, Y, 0.1, inputs=np.zeros(5))
        k = Kernel(dim=1)
        m0 = drift_gp.fit_drift(ds0, k)
        mu, gains = drift_gp.fit_drift_with_input(dsu, k)
        np.testing.assert_allclose(mu.components[0].weights,
                                   m0.components[0].weights, atol=1e-12)
        assert gains[0] == pytest.approx(0.0, abs=1e-12)

    def test_posterior_mean_linear_in_input(self):
        # mean at (x, u) = mean at (x, 0) + u * gain: check the scaling
        # identity mu(x, a u) - mu(x, 0) = a (mu(x, u) - mu(x, 0))
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 1))
        U = rng.normal(size=10)
        Y = rng.normal(size=(10, 1))
        ds = drift_gp.DriftDataset(X, Y, 0.05, inputs=U)
        model, gains = drift_gp.fit_drift_with_input(ds, Kernel(dim=1))

        def mu_bar(x, u):
            return model.components[0].mean(x[None])[0] + gains[0] * u

        x = rng.normal(size=1)
        for a in (0.3, -2.0, 5.5):
            lhs = mu_bar(x, a * 1.3) - mu_bar(x, 0.0)
            rhs = a * (mu_bar(x, 1.3) - mu_bar(x, 0.0))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_recovers_known_input_gain(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, size=(50, 1))
        U = rng.uniform(-1, 1, size=50)
        Y = (2 * X[:, 0] + 3 * U + 0.01 * rng.standard_normal(50)).reshape(-1, 1)
        ds = drift_gp.DriftDataset(X, Y, sigma_y=0.01, inputs=U)
        _, gains = drift_gp.fit_drift_with_input(ds, Kernel(dim=1))
        assert abs(gains[0] - 3.0) < 0.1

    def test_missing_inputs_rejected(self):
        ds = drift_gp.DriftDataset([[0.0]], [[1.0]], 0.0)
        with pytest.raises(DataError):
            drift_gp.fit_drift_with_input(ds, Kernel(dim=1))

    @pytest.mark.parametrize("field", ["points", "inputs"])
    def test_non_finite_points_or_inputs_rejected(self, field):
        data = {"points": [[0.0], [1.0]], "targets": [[1.0], [2.0]],
                "inputs": [0.5, -0.5]}
        data[field] = np.array(data[field], dtype=float)
        data[field][1] = np.nan
        with pytest.raises(DataError, match=f"{field} contain NaN"):
            drift_gp.DriftDataset(**data)


class TestFixedRowsAndSerialization:
    def test_fixed_row_is_exact(self):
        fixed = drift_gp.FixedAffineComponent([1.0, 0.01])
        ds = drift_gp.DriftDataset([[0.2, -0.3]], [[0.197, 1.0]],
                                   sigma_y=[0.0, 0.0])
        m = drift_gp.fit_drift(ds, Kernel(dim=2), fixed={0: fixed})
        x = np.array([0.7, 2.0])
        assert m.mean(x[None])[0, 0] == pytest.approx(0.7 + 0.01 * 2.0,
                                                      rel=1e-14)
        np.testing.assert_array_equal(m.jacobian(x[None])[0, 0], [1.0, 0.01])
        assert m.components[0].value_variance(x[None])[0] == 0.0

    def test_round_trip_through_dict(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(5, 2))
        m = drift_gp.fit_drift(
            drift_gp.DriftDataset(X, Y, sigma_y=[0.0, 0.05]), Kernel(dim=2),
            fixed={0: drift_gp.FixedAffineComponent([1.0, 0.01])})
        import json

        m2 = drift_gp.DriftModel.from_dict(
            json.loads(json.dumps(m.to_dict())))
        X = rng.normal(size=(1, 2))
        np.testing.assert_array_equal(m.mean(X), m2.mean(X))
        np.testing.assert_array_equal(m.jacobian(X), m2.jacobian(X))
        assert m2.components[1].value_variance(X)[0] == pytest.approx(
            m.components[1].value_variance(X)[0], rel=1e-12)

    def test_as_system_model(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(5, 2))
        m = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.05), Kernel(dim=2))
        sysm = m.as_system_model(b=[0.0, 1.0])
        X = rng.normal(size=(1, 2))
        np.testing.assert_array_equal(sysm.drift(X), m.mean(X))
        np.testing.assert_array_equal(sysm.drift_jacobian(X), m.jacobian(X))
