"""Synthesis tests: annihilators, the block/quadratic-form equivalence,
metric and gain steps on hand-checkable systems, the separable gain oracle,
hull construction, the stacked constraint families against per-block loops,
and the benchmark pipeline certificates."""

import itertools

import numpy as np
import pytest

from contragp import deriv_gp, drift_gp, lmi, synthesis, systems
from contragp.errors import (DataError, FactorizationError, InfeasibleError,
                             VertexBudgetError)
from contragp.kernels import Kernel


@pytest.fixture(scope="module")
def toy_scalar():
    """f(x) = 2x, b = 1: the one-point design problem solvable by hand."""
    return systems.SystemModel(
        1, lambda X: 2.0 * X, lambda X: np.full((len(X), 1, 1), 2.0),
        b=[1.0], equilibrium=[0.0])


class TestLeftAnnihilator:
    def test_oscillator_input_direction(self):
        B = synthesis.left_annihilator(np.array([0.0, 1.0]) * 0.01)
        np.testing.assert_allclose(B, [[1.0, 0.0]], atol=1e-14)

    def test_coordinate_vector_spans_complement(self):
        b = np.array([1.0, 0.0, 0.0])
        B = synthesis.left_annihilator(b)
        assert B.shape == (2, 3)
        np.testing.assert_allclose(B @ b, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(B @ B.T, np.eye(2), atol=1e-12)
        # rows live in span{e2, e3}
        assert np.abs(B[:, 0]).max() < 1e-14

    def test_scalar_fully_actuated_is_empty(self):
        B = synthesis.left_annihilator(np.array([1.0]))
        assert B.shape == (0, 1)

    def test_rank_deficient_rejected(self):
        with pytest.raises(DataError):
            synthesis.left_annihilator(np.zeros(3))

    def test_deterministic(self):
        b = np.array([0.3, -1.2, 0.5])
        B1 = synthesis.left_annihilator(b)
        B2 = synthesis.left_annihilator(b.copy())
        np.testing.assert_array_equal(B1, B2)


class TestSchurEquivalence:
    def test_block_sign_agrees_with_quadratic_form(self):
        # the 2n-block is PSD exactly when the quadratic one-step decrease
        # margin of the transposed closed-loop map is positive
        rng = np.random.default_rng(77)
        agree = 0
        total = 0
        while total < 200:
            M = rng.normal(size=(2, 2))
            P = M @ M.T + 0.2 * np.eye(2)
            J = rng.normal(size=(2, 2))
            b = rng.normal(size=2)
            v = rng.normal(size=2)
            A = J + np.outer(b, v)
            block = synthesis.ies_block(P, A)
            m_block = float(np.linalg.eigvalsh(block)[0])
            # quadratic form of the paper's reduction: P - P A^T P^{-1} A P
            m_quad = float(np.linalg.eigvalsh(
                P - P @ A.T @ np.linalg.solve(P, A @ P))[0])
            if abs(m_block) < 1e-10 or abs(m_quad) < 1e-10:
                continue  # skip boundary cases: sign comparison undefined
            total += 1
            if (m_block > 0) == (m_quad > 0):
                agree += 1
        assert agree == total

    def test_stacked_block_equals_per_matrix_block(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(3, 3))
        P = M @ M.T + np.eye(3)
        A = rng.normal(size=(6, 3, 3))
        stacked = synthesis.ies_block(P, A)
        assert stacked.shape == (6, 6, 6)
        assert np.array_equal(
            stacked, np.stack([synthesis.ies_block(P, a) for a in A]))


def _expansive_model():
    """x1+ = 2 x1 whatever the input: no law and no metric contract it."""
    return systems.linear_system(np.diag([2.0, 1.0]), [0.0, 1.0])


def _oblique_input(model):
    """``model``'s drift with the constant input vector b = (0.3, -1.0):
    both entries nonzero, so a transposed input term shows."""
    return systems.SystemModel(2, model.drift, model.drift_jacobian,
                               b=[0.3, -1.0])


def _learned_oscillator():
    """A drift model fitted to noisy oscillator data, as a system model."""
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.5, 2.5, size=(40, 2))
    Y = np.column_stack([X[:, 0] + 0.01 * X[:, 1], systems.oscillator_f2(X)])
    Y = Y + 0.01 * rng.standard_normal(Y.shape)
    model = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.01),
                               Kernel(dim=2))
    return model.as_system_model(b=[0.0, 0.01])


def assert_solver_record(report):
    """The report's JSON diagnostics carry the gain solve's path record."""
    diag = report.to_dict()["diagnostics"]
    assert diag["newton_steps"] > 0
    assert diag["barrier_stages"] >= 1
    assert diag["backtracks"] >= 0
    assert diag["final_mu"] > 0.0


class TestMetricStep:
    def test_contracting_linear_model_feasible(self):
        # A = 0.5 I: hand check with P = I gives annihilated decrease 0.75
        lin = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        P, eps_p = synthesis.solve_metric(lin, np.zeros((1, 2)))
        assert eps_p > 0.0
        assert np.linalg.eigvalsh(P)[0] >= 1.0 - 1e-6

    @pytest.mark.parametrize("route", ["metric", "gain", "joint"])
    def test_expansive_unactuated_direction_infeasible(self, route):
        pts = np.array([[0.5, -0.5], [-1.0, 1.0]])
        model = _expansive_model()
        kernel = Kernel(dim=2)
        with pytest.raises(InfeasibleError) as err:
            if route == "metric":
                synthesis.solve_metric(model, pts)
            elif route == "joint":
                synthesis.solve_joint(model, kernel, pts, rho=10.0)
            else:
                synthesis.solve_gain(model, np.eye(2), kernel, pts)
        assert err.value.best_margin < 0.0
        # the worst constraint is a Jacobian block, never a metric bound
        assert err.value.worst_label in ("('point', 0)", "('point', 1)")
        assert err.value.worst_label in str(err.value)

    def test_scalar_fully_actuated_degenerates(self, toy_scalar):
        P, eps_p = synthesis.solve_metric(toy_scalar, np.zeros((1, 1)))
        np.testing.assert_array_equal(P, np.eye(1))
        assert eps_p is None

    def test_oscillator_metric(self, oscillator, control_points):
        P, eps_p = synthesis.solve_metric(oscillator, control_points, rho=10.0)
        assert eps_p > 0.0
        vals = np.linalg.eigvalsh(P)
        assert vals[0] >= 1.0 - 1e-6 and vals[-1] <= 10.0 + 1e-6
        # same shape as the benchmark metric: strong negative coupling
        assert P[0, 1] < 0.0


class TestGainStep:
    def test_toy_hand_solution(self, toy_scalar):
        rep = synthesis.solve_gain(toy_scalar, np.eye(1), Kernel(dim=1),
                                   np.array([[0.0]]))
        assert rep.eps == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(
            rep.controller.control_grad_batch([[0.0]])[0], [-2.0], atol=1e-6)

    def test_zero_control_admissible_for_contracting_model(self):
        lin = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        pts = np.array([[0.3, -0.2], [-0.5, 0.8]])
        P, eps_p = synthesis.solve_metric(lin, pts)
        rep = synthesis.solve_gain(lin, P, Kernel(dim=2), pts, eps_p=eps_p)
        uncontrolled = min(
            float(np.linalg.eigvalsh(synthesis.ies_block(P, 0.5 * np.eye(2)))[0])
            for _ in pts)
        assert rep.solver_margin >= uncontrolled - 1e-7

    def test_fitted_certificate_matches_solver(self, osc_two_step):
        # noise-free route: the fitted gradient interpolates the optimizer,
        # so recomputed per-point margins reproduce the solver margin
        assert osc_two_step.point_margins.min() == pytest.approx(
            osc_two_step.solver_margin, abs=1e-6)

    def test_oscillator_two_step_feasible(self, osc_two_step):
        assert osc_two_step.eps > 0.0
        assert osc_two_step.eps_p > 0.0
        assert osc_two_step.mode == "two-step"
        assert_solver_record(osc_two_step)

    def test_ill_conditioned_gram_fails_the_residual_guard(self):
        # K0 of 10 points 1/9 apart factors, and the LMI solves, but the
        # Jacobian 2 + cos(9 pi x) alternates between 3 and 1 there, so the
        # gradients g = -J alternate too and the weights K0^{-1} g do not
        # reproduce them to 1e-6 (1 + |g|); the guard's advice is about the
        # design points
        k = 9.0 * np.pi
        model = systems.SystemModel(
            1, lambda X: 2.0 * X + np.sin(k * X) / k,
            lambda X: (2.0 + np.cos(k * X))[:, :, None], b=[1.0])
        pts = np.linspace(0.0, 1.0, 10)[:, None]
        with pytest.raises(FactorizationError,
                           match="weight solve residual") as err:
            synthesis.solve_gain(model, np.eye(1), Kernel(dim=1), pts)
        assert "better-separated design points" in str(err.value)
        assert "sigma_p" not in str(err.value)

    @pytest.mark.parametrize("route", ["gain", "joint"])
    def test_singular_gram_matrix_raises_without_jitter(self, oscillator,
                                                        route):
        # two design points 1e-9 apart make K0 singular in floating point
        pts = np.array([[0.5, 0.5], [0.5 + 1e-9, 0.5]])
        with pytest.raises(FactorizationError,
                           match="must factor without jitter") as err:
            if route == "gain":
                synthesis.solve_gain(oscillator, np.eye(2), Kernel(dim=2),
                                     pts)
            else:
                synthesis.solve_joint(oscillator, Kernel(dim=2), pts)
        assert "better-separated design points" in str(err.value)
        assert "increase the jitter" not in str(err.value)

    def test_non_finite_gram_matrix_raises(self):
        # a factor that carries a NaN through must not slip past
        pts = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(FactorizationError,
                           match="must factor without jitter"):
            synthesis._design_gram(Kernel(dim=2), pts)


def polynomial_chain(extra, dt=0.05):
    """x_i+ = (1 - dt) x_i + dt x_{i+1} for i < n, x_n+ = x_n + dt x_1, plus
    ``extra`` terms (row, exponents, coefficient) scaled by dt; b = dt e_n."""
    n = len(extra[0][1])
    rows = [[] for _ in range(n)]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows[i].append({"exponents": e, "coef": 1.0 if i == n - 1 else 1 - dt})
        e = [0] * n
        e[(i + 1) % n] = 1
        rows[i].append({"exponents": e, "coef": dt})
    for i, expo, coef in extra:
        rows[i].append({"exponents": list(expo), "coef": dt * coef})
    return systems.polynomial_system(
        {"n": n, "b": [0.0] * (n - 1) + [dt], "rows": rows})


def per_point_optimum(P, J, b):
    """max over g of lambda_min([[P, (A P)^T], [A P, P]]), A = J + b g^T, for
    one point: the objective is concave in g, so Nelder-Mead with a restart
    reaches its maximum."""
    from scipy.optimize import minimize

    n = len(b)
    M = np.empty((2 * n, 2 * n))
    M[:n, :n] = M[n:, n:] = P

    def neg(g):
        AP = (J + np.outer(b, g)) @ P
        M[n:, :n] = AP
        M[:n, n:] = AP.T
        return -np.linalg.eigvalsh(M)[0]

    g = np.zeros(n)
    for _ in range(2):
        simplex = g + 0.5 / np.linalg.norm(b) * np.vstack(
            [np.zeros(n), np.eye(n)])
        res = minimize(neg, g, method="Nelder-Mead", options={
            "initial_simplex": simplex, "xatol": 1e-10, "fatol": 1e-13,
            "maxiter": 20000})
        g = res.x
    return -res.fun


class TestSeparableGainOracle:
    """With a constant input vector the gain problem separates by design
    point, so its optimum is the smallest of the points' own optima."""

    @staticmethod
    def _check(model, points, rho=10.0):
        rep = synthesis.run_synthesis(model, Kernel(dim=model.n), points,
                                      mode="two-step", rho=rho)
        oracle = min(per_point_optimum(rep.P, J, model.b)
                     for J in model.drift_jacobian(points))
        assert abs(rep.eps - oracle) <= 1e-5  # the default width of lmi.solve
        return rep

    def test_three_dimensional_chain_at_four_points_per_axis(self):
        # feasible, with per-point optima 0.197 to 0.327; the path that
        # started at mu = max(1, |m0|) stalled at margin -9.965 and reported
        # the design infeasible
        model = polynomial_chain([(0, (2, 0, 0), 0.2), (1, (1, 1, 0), -0.2),
                                  (2, (0, 3, 0), 0.5), (2, (1, 0, 1), 0.3)])
        points = systems.grid_points(systems.Box.make([-1.0] * 3, [1.0] * 3),
                                     4)
        rep = self._check(model, points)
        assert rep.eps == pytest.approx(0.1970346, abs=1e-6)

    def test_random_chains_match_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(4):
            n = 2 + trial % 2
            extra = [(int(rng.integers(0, n)),
                      tuple(rng.multinomial(2, np.ones(n) / n)),
                      float(rng.uniform(-0.4, 0.4))) for _ in range(3)]
            points = rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 9)), n))
            self._check(polynomial_chain(extra), points)


class TestClosedLoopJacobians:
    @staticmethod
    def _law(rng):
        pts = rng.uniform(-2.0, 2.0, size=(5, 2))
        data = deriv_gp.DerivativeDataset(pts, rng.normal(size=(5, 2)))
        return deriv_gp.fit(Kernel(dim=2), data).with_offset_at([0.3, 0.1])

    @pytest.mark.parametrize("model", ["oscillator", "oblique-input",
                                       "learned"])
    def test_matches_pointwise_formula(self, model, oscillator):
        rng = np.random.default_rng(5)
        law = self._law(rng)
        model = {"oscillator": lambda: oscillator,
                 "oblique-input": lambda: _oblique_input(oscillator),
                 "learned": _learned_oscillator}[model]()
        X = rng.uniform(-2.0, 2.0, size=(7, 2))
        A = synthesis.closed_loop_jacobians(model, law, X)
        assert A.shape == (7, 2, 2)
        for a, x in zip(A, X):
            one = x[None]
            want = (model.drift_jacobian(one)[0]
                    + np.outer(model.b, law.control_grad_batch(one)[0]))
            np.testing.assert_allclose(a, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("model", ["oscillator", "oblique-input",
                                       "learned"])
    def test_once_per_point_matches_once_per_vertex(self, model, oscillator):
        # hull vertices at their cell centers: the law evaluated once per
        # point and gathered gives the bits of one evaluation per vertex
        rng = np.random.default_rng(6)
        law = self._law(rng)
        model = {"oscillator": lambda: oscillator,
                 "oblique-input": lambda: _oblique_input(oscillator),
                 "learned": _learned_oscillator}[model]()
        X = rng.uniform(-2.0, 2.0, size=(6, 2))
        owners = np.repeat(np.arange(6), [4, 1, 2, 4, 4, 1])[
            rng.permutation(16)]
        jacs = rng.normal(size=(16, 2, 2))
        np.testing.assert_array_equal(
            synthesis.closed_loop_jacobians(model, law, X, jacs, owners),
            synthesis.closed_loop_jacobians(model, law, X[owners], jacs))


class TestJointRoute:
    def test_toy_matches_two_step(self, toy_scalar):
        rep2 = synthesis.run_synthesis(toy_scalar, Kernel(dim=1),
                                       np.array([[0.0]]), mode="two-step")
        repj = synthesis.run_synthesis(toy_scalar, Kernel(dim=1),
                                       np.array([[0.0]]), mode="joint")
        d = abs(rep2.controller.control_grad_batch([[0.0]])[0, 0]
                - repj.controller.control_grad_batch([[0.0]])[0, 0])
        assert d < 1e-6

    def test_feasible_two_step_point_is_joint_feasible(self, osc_two_step,
                                                       oscillator):
        # substituting the two-step solution into the joint family keeps
        # every block PSD
        P = osc_two_step.P
        ctrl = osc_two_step.controller
        for x in osc_two_step.points:
            A = oscillator.drift_jacobian(x[None])[0] + np.outer(
                oscillator.b, ctrl.control_grad_batch([x])[0])
            assert np.linalg.eigvalsh(synthesis.ies_block(P, A))[0] > 0.0

    def test_oscillator_joint_feasible(self, osc_joint):
        assert osc_joint.eps > 0.0
        assert osc_joint.mode == "joint"
        assert_solver_record(osc_joint)

    def test_joint_centerings_end_at_roundoff_floor(self, osc_joint,
                                                    osc_two_step):
        # the joint path used to spend the 80-step budget on each late
        # centering (722 Newton steps); the two-step P is feasible for the
        # joint problem, so the joint eps is at least the two-step eps
        assert osc_joint.diagnostics["newton_steps"] < 300
        assert osc_joint.eps >= osc_two_step.eps - 1e-6 * 10.0


class TestHulls:
    def test_linear_model_single_vertex(self):
        lin = systems.linear_system(np.array([[0.5, 0.1], [0.0, 0.7]]),
                                    [0.0, 1.0])
        h = synthesis.build_hulls(lin, systems.Box.make([-1, -1], [1, 1]), 2,
                                  inflation=0.1)
        assert bool(h.pinned.all())
        assert all(h.vertex_count(i) == 1 for i in range(h.n_cells))
        np.testing.assert_allclose(
            h.vertices(),
            np.broadcast_to([[0.5, 0.1], [0.0, 0.7]], (h.n_cells, 2, 2)))

    def test_oscillator_cell_has_four_vertices(self, oscillator):
        h = synthesis.build_hulls(
            oscillator, systems.Box.make([-2, -2], [-1, -1]), 1,
            inflation=0.1)
        # first drift row is structural, second varies in both entries
        assert h.vertex_count(0) == 4
        np.testing.assert_array_equal(h.pinned[0, 0], [True, True])
        np.testing.assert_array_equal(h.pinned[0, 1], [False, False])

    def test_sine_intervals_match_endpoint_monotonicity(self):
        # d f / d x = 1 + dt cos x is monotone on each half of [0, pi], so
        # sampled entrywise intervals hit the analytic endpoints exactly
        sine = systems.sine1d(dt=0.1)
        h = synthesis.build_hulls(sine, systems.Box.make([0.0], [np.pi]), 2,
                                  inflation=0.0)
        np.testing.assert_allclose(h.lo.reshape(-1), [1.0, 0.9], atol=1e-12)
        np.testing.assert_allclose(h.hi.reshape(-1), [1.1, 1.0], atol=1e-12)

    def test_membership_certified_on_validation_subgrid(self, oscillator):
        h = synthesis.build_hulls(oscillator,
                                  systems.Box.make([-2, -2], [2, 2]), 3,
                                  inflation=0.1)
        ok, worst, _ = h.check_membership(oscillator.drift_jacobian,
                                          per_axis=6)
        assert ok, f"hull violated by {worst}"

    def test_matches_per_cell_reference_loop(self, oscillator):
        # the hull and its membership check from one Jacobian call on all
        # cells' samples equal a per-cell, per-point loop bit for bit
        box = systems.Box.make([-2, -1], [2, 3])
        h = synthesis.build_hulls(oscillator, box, 3, inflation=0.1,
                                  samples_per_axis=4)
        ok, worst, per_cell = h.check_membership(oscillator.drift_jacobian,
                                                 per_axis=5)
        for i, cell in enumerate(h.cells):
            J = np.stack([oscillator.drift_jacobian(x[None])[0]
                          for x in systems.grid_points(cell, 4)])
            Jlo, Jhi = J.min(axis=0), J.max(axis=0)
            width = Jhi - Jlo
            pinned = width <= 1e-10 * np.maximum(
                1.0, np.maximum(np.abs(Jlo), np.abs(Jhi)))
            pad = np.where(pinned, 0.0, 0.1 * (width + cell.diameter()))
            np.testing.assert_array_equal(h.pinned[i], pinned)
            np.testing.assert_array_equal(h.lo[i], Jlo - pad)
            np.testing.assert_array_equal(h.hi[i], Jhi + pad)
            np.testing.assert_array_equal(h.centers[i],
                                          0.5 * (cell.lo_arr + cell.hi_arr))
            v = 0.0
            for x in systems.grid_points(cell, 5):
                Jx = oscillator.drift_jacobian(x[None])[0]
                v = max(v, float(np.max(h.lo[i] - Jx)),
                        float(np.max(Jx - h.hi[i])))
            assert per_cell[i] == v
        assert worst == max(per_cell) and ok == (worst <= 1e-9)

    def test_vertex_budget_enforced(self):
        rng = np.random.default_rng(1)

        def messy_drift(X):
            return np.sin(3 * X) + X ** 2

        def messy_jac(X):
            return (3 * np.cos(3 * X) + 2 * X)[:, :, None] * np.eye(3)

        model = systems.SystemModel(3, messy_drift, messy_jac,
                                    b=[0.0, 0.0, 1.0], validate=False)
        with pytest.raises(VertexBudgetError):
            synthesis.build_hulls(model, systems.Box.make([-1] * 3, [1] * 3),
                                  1, inflation=0.1, vertex_cap=4)

    @pytest.mark.parametrize("take", [slice(3), slice(None, None, -1)],
                             ids=["count", "order"])
    def test_points_must_be_the_cell_centers(self, take):
        # 3 points against 4 cells is a DataError too, not a broadcast
        # failure of the comparison
        sine = systems.sine1d()
        hulls = synthesis.build_hulls(sine, systems.Box.make([0.0], [np.pi]),
                                      4, inflation=0.1)
        with pytest.raises(DataError, match="points must be the hull cell "
                                            "centers"):
            synthesis.run_synthesis(sine, Kernel(dim=1), hulls.centers[take],
                                    mode="polytopic", hulls=hulls)


class TestPolytopicTwoD:
    def test_single_vertex_hulls_reduce_to_pointwise_metric(self):
        lin = systems.linear_system(np.array([[0.5, 0.1], [0.0, 0.7]]),
                                    [0.0, 1.0])
        h = synthesis.build_hulls(lin, systems.Box.make([-1, -1], [1, 1]), 2,
                                  inflation=0.1)
        P_hull, eps_hull = synthesis.solve_metric(lin, h.centers, hulls=h)
        P_point, eps_point = synthesis.solve_metric(lin, h.centers)
        np.testing.assert_allclose(P_hull, P_point, atol=1e-6)
        assert eps_hull == pytest.approx(eps_point, abs=1e-6)

    def test_oscillator_vertex_certified_synthesis(self, oscillator):
        # full 2-D hull route on sampled (uninflated) intervals: every
        # vertex block of every cell certifies, and the neighboring-target
        # jump is reported for the refinement argument
        box = systems.Box.make([-2, -2], [2, 2])
        hulls = synthesis.build_hulls(oscillator, box, 3, inflation=0.0)
        P, eps_p = synthesis.solve_metric(oscillator, hulls.centers,
                                          hulls=hulls, rho=10.0)
        assert eps_p > 0.0
        rep = synthesis.solve_gain(oscillator, P, Kernel(dim=2),
                                   hulls.centers, hulls=hulls, eps_p=eps_p,
                                   rho=10.0)
        assert rep.mode == "polytopic"
        assert rep.eps > 0.0
        assert all(min(vm) > 0.0 for vm in rep.vertex_margins)
        assert rep.diagnostics["max_neighbor_target_gap"] > 0.0
        assert_solver_record(rep)

    def test_neighbor_gap_matches_adjacent_cell_loop(self, oscillator,
                                                     monkeypatch):
        # the reported gap is the largest jump of the solved gradients g
        # between cells sharing a face; g is the gain solve's optimum
        solves = []
        solve = synthesis.lmi.solve

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(synthesis.lmi, "solve", recording)
        box = systems.Box.make([-2, -2], [2, 2])
        gaps = {}
        for r in (1, 3):
            hulls = synthesis.build_hulls(oscillator, box, r, inflation=0.0)
            rep = synthesis.run_synthesis(oscillator, Kernel(dim=2),
                                          hulls.centers, mode="polytopic",
                                          rho=10.0, hulls=hulls)
            gaps[r] = rep.diagnostics.get("max_neighbor_target_gap")
        g = solves[-1].z.reshape(9, 2)
        pairs = []
        for i in range(9):
            row, col = divmod(i, 3)  # cells in C order over (x1, x2)
            if col + 1 < 3:
                pairs.append((i, i + 1))
            if row + 1 < 3:
                pairs.append((i, i + 3))
        assert len(pairs) == 12
        # the program's reduction over the last axis, so the comparison
        # stays exact
        assert gaps[3] == max(float(np.linalg.norm(g[i] - g[j], axis=-1))
                              for i, j in pairs)
        assert gaps[1] is None

    def test_metric_ignores_inflation_of_structural_rows(self, oscillator):
        # the annihilator projects onto the structural first row, which is
        # pinned, so inflating the uncertain row leaves the metric family
        # unchanged
        box = systems.Box.make([-2, -2], [2, 2])
        h0 = synthesis.build_hulls(oscillator, box, 3, inflation=0.0)
        h1 = synthesis.build_hulls(oscillator, box, 3, inflation=0.1)
        _, e0 = synthesis.solve_metric(oscillator, h0.centers, hulls=h0,
                                       rho=10.0)
        _, e1 = synthesis.solve_metric(oscillator, h1.centers, hulls=h1,
                                       rho=10.0)
        assert e0 == pytest.approx(e1, abs=1e-6)


class TestPolytopicGainSolve:
    def test_stalled_centering_ends_at_roundoff_floor(self, oscillator,
                                                      monkeypatch):
        # the benchmark's polytopic gain problem (8x8 cells, 128 variables),
        # solved 100 times tighter than synthesis asks: its last centering
        # reaches the roundoff floor of the barrier value, where it used to
        # spend the whole Newton budget on steps that roundoff hides (122
        # steps, 201 backtracks in all on the shipped width)
        solves = []
        solve = synthesis.lmi.solve

        def recording(problem, *args, **kwargs):
            solves.append((problem, solve(problem, *args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(synthesis.lmi, "solve", recording)
        box = systems.Box.make([-2, -2], [2, 2])
        hulls = synthesis.build_hulls(oscillator, box, 8, inflation=0.0,
                                      samples_per_axis=5)
        rep = synthesis.run_synthesis(oscillator, Kernel(dim=2),
                                      hulls.centers, mode="polytopic",
                                      rho=10.0, hulls=hulls)
        problem, shipped = solves[-1]
        assert shipped.z.shape == (128,)
        assert shipped.info["floor_stops"] == 0
        gain = solve(problem, width=1e-7)
        assert gain.status == "optimal"
        assert gain.info["newton_steps"] < 80
        assert gain.info["backtracks"] < 60
        assert gain.info["floor_stops"] >= 1
        assert not any("newton budget exhausted" in line
                       for line in gain.info["trace"])
        assert sum("centering at roundoff floor" in line
                   for line in gain.info["trace"]) == gain.info["floor_stops"]
        assert rep.solver_margin == pytest.approx(0.03911430415037539,
                                                  abs=1e-6 * 10.0)
        assert gain.margin == pytest.approx(shipped.margin, abs=1e-6 * 10.0)


class TestPolytopicConvexity:
    def test_vertex_certificates_dominate_cell_interiors(self):
        # lambda_min is concave over the hull, so with the cell-center
        # gradient fixed, any Jacobian inside the cell intervals scores at
        # least the worst vertex margin
        sine = systems.sine1d()
        box = systems.Box.make([0.0], [np.pi])
        hulls = synthesis.build_hulls(sine, box, 4, inflation=0.1)
        rep = synthesis.run_synthesis(sine, Kernel(dim=1), hulls.centers,
                                      mode="polytopic", hulls=hulls, rho=10.0)
        b = sine.b
        for i, cell in enumerate(hulls.cells):
            g = rep.controller.control_grad_batch([hulls.centers[i]])[0]
            vmin = min(rep.vertex_margins[i])
            for x in systems.grid_points(cell, 7):
                J = sine.drift_jacobian(x[None])[0]
                assert np.all(J >= hulls.lo[i] - 1e-12)
                assert np.all(J <= hulls.hi[i] + 1e-12)
                m = float(np.linalg.eigvalsh(
                    synthesis.ies_block(rep.P, J + np.outer(b, g)))[0])
                assert m >= vmin - 1e-9


class TestPolytopicTrend:
    def test_min_verification_margin_nondecreasing_in_subdivision(self):
        from contragp import verify_sim

        sine = systems.sine1d()
        box = systems.Box.make([0.0], [np.pi])
        kernel = Kernel(dim=1)
        prev = -np.inf
        for r in (2, 4, 8):
            hulls = synthesis.build_hulls(sine, box, r, inflation=0.1)
            ok, worst, _ = hulls.check_membership(sine.drift_jacobian,
                                                  per_axis=6)
            assert ok, f"membership violated at r={r}: {worst}"
            rep = synthesis.run_synthesis(sine, kernel, hulls.centers,
                                          mode="polytopic", hulls=hulls,
                                          rho=10.0)
            v = verify_sim.verify_grid(sine, rep.controller, rep.P, box, 101)
            assert v.min_margin >= prev - 1e-9
            prev = v.min_margin
        assert prev > 0.0  # the finest subdivision certifies the whole box


# ---------------------------------------------------------------------------
# the per-block loops that built every constraint family, as bit-identity
# oracles for the stacked constructions


def ref_vertices(hull, i):
    """Cell i's vertices as the per-cell enumeration loop built them."""
    free = np.argwhere(~hull.pinned[i])
    base = 0.5 * (hull.lo[i] + hull.hi[i])
    base[~hull.pinned[i]] = 0.0
    out = []
    for combo in itertools.product((0, 1), repeat=len(free)):
        V = hull.lo[i].copy()
        V[hull.pinned[i]] = base[hull.pinned[i]]
        for (r, c), pick in zip(free, combo):
            V[r, c] = hull.hi[i][r, c] if pick else hull.lo[i][r, c]
        out.append(V)
    return out


def ref_family(model, points, hulls):
    mats, labels = [], []
    if hulls is None:
        mats = list(model.drift_jacobian(points))
        return mats, [("point", i) for i in range(len(points))]
    for i in range(hulls.n_cells):
        for l, V in enumerate(ref_vertices(hulls, i)):
            mats.append(V)
            labels.append(("cell-vertex", i, l))
    return mats, labels


def ref_metric_blocks(model, mats, labels):
    Bperp = synthesis.left_annihilator(model.b)
    q = Bperp.shape[0]
    basis = synthesis.sym_basis(model.n)
    return [lmi.AffineBlock(
        np.zeros((q, q)),
        np.stack([Bperp @ (E - J @ E @ J.T) @ Bperp.T for E in basis]),
        label=str(label)) for J, label in zip(mats, labels)]


def ref_gain_blocks(model, P, X, mats, labels):
    N, n = X.shape
    eye = np.eye(N * n)
    coeffs, cols = [], []
    for i in range(N):
        own = np.arange(i * n, (i + 1) * n)
        coeffs.append(np.stack([
            synthesis._offdiag(np.outer(model.b, eye[own, l]) @ P)
            for l in own]))
        cols.append(own)
    return [lmi.AffineBlock(synthesis.ies_block(P, J), coeffs[label[1]],
                            var_indices=cols[label[1]], label=str(label))
            for J, label in zip(mats, labels)]


def ref_joint_blocks(model, mats, labels):
    n = model.n
    basis = synthesis.sym_basis(n)
    mP = len(basis)
    eye = np.eye(n)
    gain = [synthesis._offdiag(np.outer(model.b, eye[a])) for a in range(n)]
    return [lmi.AffineBlock(
        np.zeros((2 * n, 2 * n)),
        np.stack([synthesis.ies_block(E, J) for E in basis] + gain),
        var_indices=np.r_[np.arange(mP), mP + label[1] * n + np.arange(n)],
        label=str(label)) for J, label in zip(mats, labels)]


def assert_same_blocks(blocks, ref):
    assert len(blocks) == len(ref)
    for blk, want in zip(blocks, ref):
        assert blk.label == want.label
        np.testing.assert_array_equal(blk.const, want.const)
        np.testing.assert_array_equal(blk.coeffs, want.coeffs)
        if want.var_indices is None:
            assert blk.var_indices is None
        else:
            np.testing.assert_array_equal(blk.var_indices, want.var_indices)


class _Captured(Exception):
    pass


@pytest.fixture
def captured(monkeypatch):
    """The problems handed to lmi.solve, which then stops the route."""
    problems = []

    def capture(problem, *args, **kwargs):
        problems.append(problem)
        raise _Captured

    monkeypatch.setattr(synthesis.lmi, "solve", capture)
    return problems


def _route(family, oscillator):
    """(model, design points, hulls) of the oscillator on 3 x 3 design
    points or 3 x 3 hull cells, ``family`` "points" or "hull"."""
    box = systems.Box.make([-2.0, -2.0], [2.0, 2.0])
    if family == "points":
        return oscillator, systems.grid_points(box, 3), None
    hulls = synthesis.build_hulls(oscillator, box, 3, inflation=0.1)
    return oscillator, hulls.centers, hulls


class TestStackedFamilies:
    @pytest.mark.parametrize("case", ["hull", "chain"])
    def test_metric_family_matches_per_block_loop(self, case, oscillator,
                                                  captured):
        if case == "hull":
            model, X, hulls = _route("hull", oscillator)
        else:
            # three states, one input: 2 x 2 annihilated blocks
            model = polynomial_chain([(0, (1, 1, 0), 0.5),
                                      (1, (0, 2, 0), -0.3)])
            X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(7, 3))
            hulls = None
        with pytest.raises(_Captured):
            synthesis.solve_metric(model, X, hulls=hulls)
        ref = ref_metric_blocks(model, *ref_family(model, X, hulls))
        assert_same_blocks(captured[0].blocks[:len(ref)], ref)

    @pytest.mark.parametrize("case", [("oscillator", "points"),
                                      ("oscillator", "hull"),
                                      ("oblique-input", "points"),
                                      ("oblique-input", "hull")],
                             ids="-".join)
    def test_gain_family_matches_per_block_loop(self, case, oscillator,
                                                captured):
        model, X, hulls = _route(case[1], oscillator)
        if case[0] == "oblique-input":
            model = _oblique_input(model)
        P = np.array([[2.0, -0.7], [-0.7, 1.5]])
        with pytest.raises(_Captured):
            synthesis.solve_gain(model, P, Kernel(dim=2), X, hulls=hulls)
        assert_same_blocks(captured[0].blocks, ref_gain_blocks(
            model, P, X, *ref_family(model, X, hulls)))

    def test_joint_family_matches_per_block_loop(self, oscillator, captured):
        model, X, _ = _route("points", oscillator)
        with pytest.raises(_Captured):
            synthesis.solve_joint(model, Kernel(dim=2), X)
        ref = ref_joint_blocks(model, *ref_family(model, X, None))
        assert_same_blocks(captured[0].blocks[:len(ref)], ref)

    @pytest.mark.parametrize("route", ["two-step", "polytopic", "joint",
                                       "metric", "chain"])
    def test_newton_split_of_each_route(self, route, oscillator, captured):
        # the gain variables of one design point (or cell) are local to it;
        # P's entries on the joint route and t are the border; a family
        # whose blocks all share one index list (the metric's) is all border
        model, X, hulls = _route(
            "hull" if route == "polytopic" else "points", oscillator)
        if route == "chain":
            model = polynomial_chain([(0, (1, 1, 0), 0.5),
                                      (1, (0, 2, 0), -0.3)])
            X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(7, 3))
        N, n = X.shape
        with pytest.raises(_Captured):
            if route == "metric":
                synthesis.solve_metric(model, X)
            elif route == "joint":
                synthesis.solve_joint(model, Kernel(dim=n), X)
            else:
                synthesis.solve_gain(model, np.eye(n), Kernel(dim=n), X,
                                     hulls=hulls)
        problem = captured[0]
        split = lmi._Workspace(problem).split
        stacks = [loc.T for loc, *_ in split.stacks]
        m = problem.dim
        if route == "metric":
            assert stacks == []
            np.testing.assert_array_equal(split.border, np.arange(m + 1))
        elif route == "joint":
            assert len(stacks) == 1
            np.testing.assert_array_equal(
                stacks[0], 3 + np.arange(N * n).reshape(N, n))
            np.testing.assert_array_equal(split.border, [0, 1, 2, m])
        else:
            assert len(stacks) == 1
            np.testing.assert_array_equal(stacks[0],
                                          np.arange(N * n).reshape(N, n))
            np.testing.assert_array_equal(split.border, [m])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vertices_in_per_cell_product_order(self, n):
        # cells with different free-entry counts, all pinned included
        rng = np.random.default_rng(n)
        cells = 5
        lo = rng.normal(size=(cells, n, n))
        hi = lo + rng.uniform(0.1, 1.0, size=lo.shape)
        pinned = rng.uniform(size=lo.shape) < 0.5
        pinned[0] = True
        pinned[1] = False
        box = systems.Box.make([-1.0] * n, [1.0] * n)
        hull = synthesis.VertexHull(cells=[box] * cells,
                                    centers=np.zeros((cells, n)),
                                    lo=lo, hi=hi, pinned=pinned)
        ref = [ref_vertices(hull, i) for i in range(cells)]
        np.testing.assert_array_equal(hull.vertices(),
                                      np.concatenate(ref))
        mats, owners, labels = hull.family
        np.testing.assert_array_equal(mats, np.concatenate(ref))
        assert labels == [("cell-vertex", i, l)
                          for i in range(cells) for l in range(len(ref[i]))]
        np.testing.assert_array_equal(owners, [lab[1] for lab in labels])

    @pytest.mark.parametrize("n, r", [(1, 4), (2, 3), (3, 2)])
    def test_cells_in_product_order(self, n, r):
        lin = systems.linear_system(0.5 * np.eye(n), [0.0] * (n - 1) + [1.0])
        domain = systems.Box.make(np.linspace(-1.0, -0.5, n),
                                  np.linspace(0.7, 2.0, n))
        hull = synthesis.build_hulls(lin, domain, r, inflation=0.1)
        edges = [np.linspace(domain.lo[i], domain.hi[i], r + 1)
                 for i in range(n)]
        cells = [systems.Box.make([edges[i][c] for i, c in enumerate(combo)],
                                  [edges[i][c + 1]
                                   for i, c in enumerate(combo)])
                 for combo in itertools.product(range(r), repeat=n)]
        assert hull.cells == cells
        np.testing.assert_array_equal(
            hull.centers,
            np.array([0.5 * (c.lo_arr + c.hi_arr) for c in cells]))
