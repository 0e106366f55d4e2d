"""Stochastic-compensation tests: diffusion-gradient closed forms, moment
margin plug-ins and their deterministic reduction, and probability-inflated
hulls with a Monte-Carlo coverage oracle."""

import math

import numpy as np
import pytest

from contragp import drift_gp, stochastic, synthesis, systems
from contragp.errors import DataError
from contragp.kernels import Kernel
from test_drift_gp import (contract_models, prior_scale, ref_jac_variance,
                           ref_value_variance, ref_variance_total_gradient)


def quadratic_margin(A, P):
    """lambda_min(P - A^T P A): the quadratic one-step decrease margin of a
    linear(ized) map in the metric P; the oracle of the moment check's
    zero-diffusion reduction."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    M = P - A.T @ P @ A
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def scalar_check(slope, noise_grad):
    """The moment check of x+ = slope x + sigma(x) w at the origin, in the
    metric 1, with diffusion gradient ``noise_grad`` there."""
    return stochastic.moment_ies_check(
        [[1.0]], [[0.0]], np.full((1, 1, 1), slope),
        np.full((1, 1, 1), noise_grad), np.zeros((1, 1), dtype=bool))


class TestSigmaJacobian:
    def test_prior_is_flat(self):
        comp = drift_gp.GPComponent(Kernel(dim=1), np.zeros((0, 1)), [], 0.0)
        model = drift_gp.DriftModel(np.zeros((0, 1)), [comp])
        rows, flags = stochastic.sigma_jacobian(model, [[0.7]])
        np.testing.assert_allclose(rows[0], [[0.0]], atol=1e-12)
        assert not flags[0, 0]

    def test_closed_form_single_point(self):
        # v(x,x) = 1 - exp(-x^2), so d sigma/dx at 1 is e^{-1}/sqrt(1-e^{-1})
        ds = drift_gp.DriftDataset([[0.0]], [[3.0]], sigma_y=0.0)
        model = drift_gp.fit_drift(ds, Kernel(dim=1))
        rows, flags = stochastic.sigma_jacobian(model, [[1.0]])
        expected = math.exp(-1.0) / math.sqrt(1.0 - math.exp(-1.0))
        assert rows[0, 0, 0] == pytest.approx(expected, rel=1e-10)
        assert not flags[0, 0]

    def test_matches_finite_differences_away_from_data(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 2))
        model = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.05),
                                   Kernel(dim=2))
        h = 1e-6
        checked = 0
        while checked < 20:
            x = rng.uniform(-4, 4, size=2)
            if np.min(np.linalg.norm(X - x, axis=1)) < 0.5:
                continue
            checked += 1
            rows, flags = stochastic.sigma_jacobian(model, x[None])
            rows = rows[0]
            assert not flags.any()
            for i in range(2):
                fd = np.zeros(2)
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h
                    var = model.components[i].value_variance
                    sp = np.sqrt(var((x + e)[None])[0])
                    sm = np.sqrt(var((x - e)[None])[0])
                    fd[j] = (sp - sm) / (2 * h)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(rows[i] - fd).max() < 1e-4 * scale

    def test_floored_rows_are_flagged(self):
        ds = drift_gp.DriftDataset([[0.5]], [[1.0]], sigma_y=0.0)
        model = drift_gp.fit_drift(ds, Kernel(dim=1))
        rows, flags = stochastic.sigma_jacobian(model, [[0.5]])
        assert flags[0, 0]
        assert np.all(np.isfinite(rows))

    def test_floored_row_at_noiseless_se_point_is_closed_form(self):
        # at a noiseless SE data point x0, v(x0 + h) = 1 - exp(-h^2), so
        # sigma grows like |h| times the gradient posterior std, which is 1
        ds = drift_gp.DriftDataset([[0.5]], [[1.0]], sigma_y=0.0)
        model = drift_gp.fit_drift(ds, Kernel(dim=1))
        rows, flags = stochastic.sigma_jacobian(model, [[0.5]])
        assert flags[0, 0]
        assert rows[0, 0, 0] == 1.0

    @pytest.mark.parametrize("draw", range(4))
    def test_every_noiseless_se_training_point_is_floored(self, draw):
        # v = k(x, x) - k^T K^-1 k at a noiseless training point is zero up
        # to roundoff of order eps k(x, x) = eps, on either side of
        # SIGMA_FLOOR**2; the floor decision must flag all of them, in one
        # stack and one row at a time alike
        rng = np.random.default_rng(3)
        for _ in range(draw + 1):
            X = rng.uniform(-2.0, 2.0, size=(12, 2))
            Y = rng.normal(size=(12, 2))
        model = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, sigma_y=0.0),
                                   Kernel(dim=2))
        _, flags = stochastic.sigma_jacobian(model, X)
        assert flags.all()
        for x in X:
            assert stochastic.sigma_jacobian(model, x[None])[1].all()


def ref_sigma_jacobian(model, x):
    """The per-state rows and flags that the stacked sigma_jacobian
    replaced.  A floored row is sqrt(diag(C)), C the per-state posterior
    covariance of the gradient row: from a point where the variance
    vanishes, such as the data point of ``mixed_model``, sigma grows like
    |h| sqrt(C_jj).  A one-sided difference of sigma there carries the
    cancellation in 1 - exp(-q), about 1e-4 relative at h = 1e-6."""
    n = len(model.components)
    rows = np.zeros((n, x.shape[0]))
    flags = np.zeros(n, dtype=bool)
    for i, comp in enumerate(model.components):
        if comp.fixed:
            continue
        sd = np.sqrt(ref_value_variance(comp, x))
        if sd >= stochastic.SIGMA_FLOOR:
            rows[i] = ref_variance_total_gradient(comp, x) / (2.0 * sd)
        else:
            flags[i] = True
            rows[i] = np.sqrt(np.clip(np.diag(ref_jac_variance(comp, x)),
                                      0.0, None))
    return rows, flags


def mixed_model():
    """A fixed row and a noiseless SE row, whose posterior std vanishes
    exactly at its one data point (floored and flagged) and is well above
    the floor away from it."""
    ds = drift_gp.DriftDataset([[1.0, 0.3]], [[0.0, 0.3]], sigma_y=0.0)
    return drift_gp.fit_drift(
        ds, Kernel(dim=2),
        fixed={0: drift_gp.FixedAffineComponent([1.0, 0.01])})


def stacked_cases():
    """name -> (model, stack of states); the mixed stack holds the mixed
    model's data point twice among states away from it."""
    X, models = contract_models()
    mixed = mixed_model()
    p = mixed.points
    cases = {name: (model, X) for name, model in models.items()}
    cases["mixed"] = (mixed, np.vstack([p, X[:4], p, X[4:]]))
    return cases


class TestStackedSigmaJacobian:
    @pytest.mark.parametrize("case", ["se", "fixed-row", "mixed"])
    def test_rows_and_flags_match_per_state_formula(self, case):
        model, X = stacked_cases()[case]
        rows, flags = stochastic.sigma_jacobian(model, X)
        assert rows.shape == (len(X), 2, 2) and flags.shape == (len(X), 2)
        refs = [ref_sigma_jacobian(model, x) for x in X]
        ref_rows = np.array([r for r, _ in refs])
        ref_flags = np.array([f for _, f in refs])
        np.testing.assert_array_equal(flags, ref_flags)
        tol = 1e-11 * max(prior_scale(model, X), np.abs(ref_rows).max())
        assert np.abs(rows - ref_rows).max() <= tol
        if case == "mixed":
            # the stack mixes floored and unfloored states
            assert flags.any()
            np.testing.assert_array_equal(
                flags[:, 1], np.all(X == model.points[0], axis=1))
            assert not flags[:, 0].any()

    @pytest.mark.parametrize("case", ["se", "mixed"])
    def test_moment_check_matches_per_point_loop(self, case):
        model, X = stacked_cases()[case]
        rng = np.random.default_rng(41)
        M = rng.normal(size=(2, 2))
        Pbar = M @ M.T + 0.5 * np.eye(2)
        rep = stochastic.moment_ies_check(
            Pbar, X, model.jacobian(X), *stochastic.sigma_jacobian(model, X))
        margins, terms, flagged = [], [], []
        for x in X:
            J = model.jacobian(x[None])[0]
            rows, flags = ref_sigma_jacobian(model, x)
            noise = sum(Pbar[i, i] * np.outer(rows[i], rows[i])
                        for i in range(2))
            Mx = Pbar - J.T @ Pbar @ J - noise
            margins.append(np.linalg.eigvalsh(0.5 * (Mx + Mx.T))[0])
            terms.append(np.linalg.eigvalsh(0.5 * (noise + noise.T))[-1])
            flagged.append(bool(flags.any()))
        tol = 1e-11 * max(1.0, np.abs(terms).max())
        assert np.abs(rep.margins - margins).max() <= tol
        assert np.abs(rep.noise_terms - terms).max() <= tol
        np.testing.assert_array_equal(rep.flagged, flagged)
        assert rep.eps_bar == pytest.approx(min(margins), abs=tol)
        assert rep.passed == (min(margins) > 0.0)


class TestMomentCheck:
    def test_plugin_margin_passes(self):
        rep = scalar_check(0.5, 0.1)
        assert rep.margins[0] == pytest.approx(0.74, abs=1e-12)
        assert rep.passed

    def test_plugin_margin_fails(self):
        rep = scalar_check(0.5, 0.9)
        assert rep.margins[0] == pytest.approx(-0.06, abs=1e-12)
        assert not rep.passed

    def test_deterministic_reduction(self):
        # zero diffusion: margins equal the quadratic one-step decrease
        # margin of the mean Jacobian in the same metric
        rng = np.random.default_rng(17)
        M = rng.normal(size=(2, 2))
        Pbar = M @ M.T + 0.5 * np.eye(2)
        J = 0.3 * rng.normal(size=(2, 2))
        rep = stochastic.moment_ies_check(
            Pbar, rng.normal(size=(7, 2)), np.broadcast_to(J, (7, 2, 2)),
            np.zeros((7, 2, 2)), np.zeros((7, 2), dtype=bool))
        expected = quadratic_margin(J, Pbar)
        np.testing.assert_allclose(rep.margins, expected, atol=1e-10)

    def test_noise_term_only_hurts(self):
        clean = scalar_check(0.5, 0.0)
        noisy = scalar_check(0.5, 0.3)
        assert noisy.margins[0] <= clean.margins[0]

    def test_learned_loop_reduction_consistency(self):
        # a learned loop with sigma identically zero is impossible, but far
        # from data the flags stay off and margins match the deterministic
        # formula with the same Jacobian
        ds = drift_gp.DriftDataset([[0.0, 0.0]], [[0.0, 0.0]],
                                   sigma_y=[0.1, 0.1])
        model = drift_gp.fit_drift(ds, Kernel(dim=2))
        ctrl_pts = np.array([[0.0, 0.0]])
        ctrl = synthesis.run_synthesis(
            model.as_system_model(b=[0.0, 1.0]), Kernel(dim=2), ctrl_pts,
            mode="two-step", rho=10.0).controller
        x = np.array([[3.0, 3.0]])
        rep = stochastic.moment_ies_check(
            np.eye(2), x,
            synthesis.closed_loop_jacobians(
                model.as_system_model(b=[0.0, 1.0]), ctrl, x),
            *stochastic.sigma_jacobian(model, x))
        J = model.jacobian([[3.0, 3.0]])[0] + np.outer(
            [0.0, 1.0], ctrl.control_grad_batch([[3.0, 3.0]])[0])
        rows = stochastic.sigma_jacobian(model, [[3.0, 3.0]])[0][0]
        manual = np.linalg.eigvalsh(
            np.eye(2) - J.T @ J
            - sum(np.outer(rows[i], rows[i]) for i in range(2)))[0]
        assert rep.margins[0] == pytest.approx(manual, abs=1e-10)



class _StubComponent:
    fixed = False

    def __init__(self, var):
        self._var = var

    def jac_variance(self, X):
        return np.broadcast_to(self._var, (len(X),) + self._var.shape)


class _StubModel:
    """Duck-typed drift model with a prescribed Jacobian-row covariance."""

    def __init__(self, var_diag, n=2):
        self.components = [_StubComponent(np.diag(var_diag))
                           for _ in range(n)]


def unit_hull():
    lin = systems.linear_system(np.array([[0.5, 0.1], [0.0, 0.7]]),
                                [0.0, 1.0])
    return synthesis.build_hulls(lin, systems.Box.make([-1, -1], [1, 1]), 1,
                                 inflation=0.0)


class TestChebyshevHulls:
    def test_zero_variance_leaves_hulls_unchanged(self):
        h = unit_hull()
        ch = stochastic.chebyshev_hulls(_StubModel([0.0, 0.0]), h, 40.0)
        np.testing.assert_array_equal(ch.lo, h.lo)
        np.testing.assert_array_equal(ch.hi, h.hi)

    def test_fixed_rows_untouched(self):
        h = unit_hull()
        model = _StubModel([0.04, 0.01])
        model.components[0].fixed = True
        ch = stochastic.chebyshev_hulls(model, h, 25.0)
        np.testing.assert_array_equal(ch.lo[0, 0], h.lo[0, 0])
        assert np.all(ch.lo[0, 1] < h.lo[0, 1])

    def test_hand_computed_half_widths(self):
        h = unit_hull()
        ch = stochastic.chebyshev_hulls(_StubModel([0.04, 0.01]), h, 25.0)
        np.testing.assert_allclose(ch.hi[0, 0] - h.hi[0, 0], [1.0, 0.5],
                                   rtol=1e-12)

    def test_reported_confidence(self):
        ch = stochastic.chebyshev_hulls(_StubModel([0.01, 0.01]),
                                        unit_hull(), 40.0)
        assert ch.confidence == pytest.approx((1 - 2 / 40) ** 2)
        assert ch.confidence == pytest.approx(0.9025)

    def test_vacuous_bound_rejected(self):
        with pytest.raises(DataError):
            stochastic.chebyshev_hulls(_StubModel([0.01, 0.01]),
                                       unit_hull(), 2.0)

    def test_larger_c_never_shrinks_intervals(self):
        h = unit_hull()
        model = _StubModel([0.04, 0.01])
        c1 = stochastic.chebyshev_hulls(model, h, 10.0)
        c2 = stochastic.chebyshev_hulls(model, h, 50.0)
        assert np.all(c2.lo <= c1.lo + 1e-15)
        assert np.all(c2.hi >= c1.hi - 1e-15)

    def test_monte_carlo_coverage(self):
        # sampling Jacobian rows from the posterior law, the inflated box
        # must cover at least the Chebyshev level minus sampling slack
        rng = np.random.default_rng(99)
        c = 40.0
        n = 2
        var = np.array([0.04, 0.01])
        model = _StubModel(var)
        h = unit_hull()
        ch = stochastic.chebyshev_hulls(model, h, c)
        center = 0.5 * (h.lo[0] + h.hi[0])
        for _ in range(10):
            i = int(rng.integers(0, n))
            samples = center[i] + rng.standard_normal((100_000, n)) * np.sqrt(var)
            inside = np.all((samples >= ch.lo[0, i]) & (samples <= ch.hi[0, i]),
                            axis=1)
            assert inside.mean() >= 1 - n / c - 0.02
