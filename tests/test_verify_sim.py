"""Verification and simulation tests: grid margins vs contraction factors,
rollout contracts, seeded stochastic reproducibility, and empirical rate
bounds."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from contragp import cli, drift_gp, synthesis, systems, verify_sim
from contragp.config import PipelineConfig, default_oscillator_config
from contragp.deriv_gp import DerivativeController
from contragp.errors import DataError, DimensionError
from contragp.kernels import Kernel


def random_contracting_pair(rng, n=2):
    """A metric P and a map A whose certificate block is PSD."""
    while True:
        M = rng.normal(size=(n, n))
        P = M @ M.T + 0.5 * np.eye(n)
        A = 0.6 * rng.normal(size=(n, n))
        if np.linalg.eigvalsh(synthesis.ies_block(P, A))[0] > 1e-6:
            return P, A


def open_loop(n):
    """A zero-weight law: u and its gradient vanish everywhere, so the
    closed-loop Jacobian is the drift Jacobian."""
    return DerivativeController(Kernel(dim=n), np.zeros((1, n)), np.zeros(n))


@pytest.fixture
def chunk(request, monkeypatch):
    """``verify_sim.CHUNK`` set to the test's parameter."""
    monkeypatch.setattr(verify_sim, "CHUNK", request.param)
    return request.param


class TestVerifyGrid:
    def test_linear_loop_uniform_margin_and_factor(self):
        rng = np.random.default_rng(51)
        P, A = random_contracting_pair(rng)
        model = systems.linear_system(A, [0.0, 1.0])
        box = systems.Box.make([-1, -1], [1, 1])
        rep = verify_sim.verify_grid(model, open_loop(2), P, box, 5)
        expect_margin = float(np.linalg.eigvalsh(synthesis.ies_block(P, A))[0])
        np.testing.assert_allclose(rep.margins, expect_margin, rtol=1e-9)
        # independent oracle: generalized eigenvalue of A P A^T against P
        from scipy.linalg import eigh

        lam2 = eigh(A @ P @ A.T, P, eigvals_only=True)[-1]
        np.testing.assert_allclose(rep.factors, np.sqrt(lam2), rtol=1e-9)
        assert rep.consistent

    def test_zero_closed_loop(self):
        # f = 2x under u = -2x gives closed-loop map 0: factor 0 and
        # uniform margin 1 for P = 1
        toy = systems.SystemModel(
            1, lambda X: 2.0 * X, lambda X: np.full((len(X), 1, 1), 2.0),
            b=[1.0], equilibrium=[0.0])

        class LinearLaw:
            def control_batch(self, X):
                return -2.0 * np.atleast_2d(X)[:, 0]

            def control_grad_batch(self, X):
                return np.full((np.atleast_2d(X).shape[0], 1), -2.0)

        box = systems.Box.make([-1.0], [1.0])
        rep = verify_sim.verify_grid(toy, LinearLaw(), np.eye(1), box, 5)
        np.testing.assert_allclose(rep.margins, 1.0, atol=1e-12)
        assert rep.lam == 0.0
        assert rep.consistent
        # the fitted one-point law matches the exact gradient at its data
        # point, so the local margin there is also 1
        rep_syn = synthesis.run_synthesis(toy, Kernel(dim=1),
                                          np.array([[0.0]]), mode="two-step")
        tight = verify_sim.verify_grid(toy, rep_syn.controller, rep_syn.P,
                                       systems.Box.make([-1e-6], [1e-6]), 3)
        np.testing.assert_allclose(tight.margins, 1.0, atol=1e-6)
        assert tight.lam < 1e-3

    def test_margin_sign_matches_factor_on_expansive_model(self):
        model = systems.linear_system(1.5 * np.eye(2), [0.0, 1.0])
        rep = verify_sim.verify_grid(model, open_loop(2), np.eye(2),
                                     systems.Box.make([-1, -1], [1, 1]), 3)
        assert rep.min_margin < 0.0 and rep.lam > 1.0 and rep.consistent

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_metric_rejected(self, bad):
        # a factor that carries NaN or inf through must not certify
        model = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        P = np.eye(2)
        P[1, 0] = P[0, 1] = bad
        with pytest.raises(DataError, match="finite"):
            verify_sim.verify_grid(model, open_loop(2), P,
                                   systems.Box.make([-1, -1], [1, 1]), 3)


class TestRollout:
    def test_equilibrium_start_stays_constant(self, oscillator, osc_two_step):
        traj = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                   [np.zeros(2)], 50)[0]
        np.testing.assert_allclose(traj.states, np.zeros((51, 2)), atol=1e-12)

    def test_toy_reaches_origin_in_one_step(self):
        toy = systems.SystemModel(
            1, lambda X: 2.0 * X, lambda X: np.full((len(X), 1, 1), 2.0),
            b=[1.0], equilibrium=[0.0])
        rep = synthesis.run_synthesis(toy, Kernel(dim=1), np.array([[0.0]]),
                                      mode="two-step")

        class ExactLaw:
            def control_batch(self, X):
                return -2.0 * np.atleast_2d(X)[:, 0]

        traj = verify_sim.rollouts(toy, ExactLaw(), [[1.0]], 3)[0]
        np.testing.assert_allclose(traj.states.reshape(-1), [1.0, 0.0, 0.0, 0.0],
                                   atol=1e-12)
        # the fitted law is exactly linear near 0 only to first order; the
        # state still collapses by orders of magnitude in a few steps
        traj2 = verify_sim.rollouts(toy, rep.controller, [[0.01]], 3)[0]
        assert abs(traj2.states[-1, 0]) < 1e-6

    def test_states_satisfy_the_step_map(self, oscillator, osc_two_step):
        traj = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                   [[1.0, -1.0]], 20)[0]
        for k in range(traj.horizon):
            expected = oscillator.step(traj.states[k:k + 1],
                                       traj.inputs[k:k + 1])[0]
            np.testing.assert_allclose(traj.states[k + 1], expected,
                                       atol=1e-12)

    def test_divergence_flagged_and_truncated(self):
        model = systems.linear_system(np.diag([3.0, 3.0]), [0.0, 1.0])
        traj = verify_sim.rollouts(model, open_loop(2), [[1.0, 1.0]], 100)[0]
        assert traj.diverged
        assert traj.horizon < 100

    def test_bad_horizon_rejected(self, oscillator):
        with pytest.raises(DataError):
            verify_sim.rollouts(oscillator, open_loop(2), [[0.0, 0.0]], 0)


class TestLockstepRollouts:
    def test_matches_single_state_rollouts(self, oscillator, osc_two_step,
                                           control_box):
        inits = systems.boundary_states(control_box, 16)
        law = osc_two_step.controller
        batch = verify_sim.rollouts(oscillator, law, inits, 300)
        assert len(batch) == 16
        for x0, traj in zip(inits, batch):
            single = verify_sim.rollouts(oscillator, law, [x0], 300)[0]
            assert traj.states.shape == (301, 2) and not traj.diverged
            np.testing.assert_allclose(traj.states, single.states, rtol=0.0,
                                       atol=1e-12)
            # the law sums terms up to 3e5 that cancel to O(100): its
            # roundoff, batched or not, is about 1e-10
            np.testing.assert_allclose(traj.inputs, single.inputs, rtol=0.0,
                                       atol=1e-9)

    @pytest.mark.parametrize("horizon", [100, 13])
    def test_mixed_batch_truncates_each_trajectory(self, horizon):
        # 3^13 is the first power of 3 above the 1e6 limit, so the first
        # state diverges at step 13, which is the last step when horizon=13
        model = systems.linear_system(np.diag([3.0, 0.5]), [0.0, 1.0])
        grow, shrink = verify_sim.rollouts(model, open_loop(2),
                                           [[1.0, 0.0], [0.0, 1.0]], horizon)
        assert grow.diverged and grow.horizon == 13
        assert grow.inputs.shape == (13,)
        np.testing.assert_allclose(grow.states[:, 0], 3.0 ** np.arange(14))
        assert not shrink.diverged and shrink.horizon == horizon
        np.testing.assert_allclose(shrink.states[:, 1],
                                   0.5 ** np.arange(horizon + 1))

    def test_non_finite_state_is_divergence(self):
        # doubling map whose drift is NaN once |x| reaches 3: 1, 2, 4, NaN
        def drift(X):
            return np.where(np.abs(X) < 3.0, 2.0 * X, np.nan)

        toy = systems.SystemModel(1, drift,
                                  lambda X: np.full((len(X), 1, 1), 2.0),
                                  b=[1.0], validate=False)
        # the NaN row leaves the stack before the law sees it
        traj, calm = verify_sim.rollouts(toy, open_loop(1), [[1.0], [0.0]],
                                         10)
        assert traj.diverged and traj.horizon == 3
        np.testing.assert_array_equal(traj.states[:3, 0], [1.0, 2.0, 4.0])
        assert np.isnan(traj.states[3, 0])
        assert not calm.diverged and calm.horizon == 10

    def test_empty_stack_gives_no_trajectories(self, oscillator):
        assert verify_sim.rollouts(oscillator, open_loop(2),
                                   np.zeros((0, 2)), 5) == []

    def test_non_finite_initial_state_rejected(self, oscillator):
        with pytest.raises(DataError):
            verify_sim.rollouts(oscillator, open_loop(2), [[np.nan, 0.0]], 5)
        with pytest.raises(DataError):
            verify_sim.rollouts(oscillator, open_loop(2), [[np.inf, 0.0]], 5,
                                noise_std=np.zeros_like, seed=0)


def stepwise_rollouts(model, law, X0, horizon):
    """The per-step lockstep loop that ``rollouts`` replaced: an index
    array as the active set and the row-wise divergence test at every
    step.  Returns (states, inputs, ends, diverged)."""
    X = np.atleast_2d(np.asarray(X0, dtype=float))
    count, n = X.shape
    states = np.empty((count, horizon + 1, n))
    inputs = np.zeros((count, horizon))
    states[:, 0] = X
    ends = np.full(count, horizon)
    diverged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for k in range(horizon):
        U = law.control_batch(X)
        inputs[active, k] = U
        X = model.step(X, U)
        states[active, k + 1] = X
        bad = ~(np.abs(X) <= verify_sim.DIVERGENCE_LIMIT).all(axis=-1)
        if bad.any():
            ends[active[bad]] = k + 1
            diverged[active[bad]] = True
            active, X = active[~bad], X[~bad]
            if active.size == 0:
                break
    return states, inputs, ends, diverged


@pytest.fixture(scope="module")
def reproduction_run(tmp_path_factory):
    """The gen-data, learn and synth artifacts of the shipped reproduction
    config."""
    out = tmp_path_factory.mktemp("reproduction_law")
    path = out / "config.json"
    path.write_text(json.dumps(default_oscillator_config()))
    for command in ("gen-data", "learn", "synth"):
        assert cli.main([command, "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def reproduction_law(reproduction_run):
    """The feedback law of the shipped reproduction config."""
    return DerivativeController.from_dict(
        json.load(open(reproduction_run / "controller.json")))


class TestRolloutsBitForBit:
    """``rollouts`` gives the bits of the per-step loop, on the all-active
    path and across the switch to the index path."""

    @staticmethod
    def assert_same(model, law, X0, horizon):
        trajs = verify_sim.rollouts(model, law, X0, horizon)
        states, inputs, ends, diverged = stepwise_rollouts(model, law, X0,
                                                           horizon)
        assert [t.horizon for t in trajs] == ends.tolist()
        assert [t.diverged for t in trajs] == diverged.tolist()
        for i, traj in enumerate(trajs):
            assert np.array_equal(traj.states, states[i, :ends[i] + 1],
                                  equal_nan=True)
            assert np.array_equal(traj.inputs, inputs[i, :ends[i]])
        return trajs

    def test_shipped_initial_states_under_the_reproduction_law(
            self, reproduction_law):
        cfg = PipelineConfig(default_oscillator_config())
        trajs = self.assert_same(cfg.system, reproduction_law,
                                 cfg.initial_states, 300)
        assert len(trajs) == 16 and not any(t.diverged for t in trajs)

    @staticmethod
    def mixed_stack(with_law):
        """A toy model, a law and four initial states: x1 triples and x2
        doubles until |x2| reaches 3, then turns NaN.  3^13 > 1e6: the
        first row diverges at step 13, the second row turns NaN at step 3
        (at step 4 under the halving law, else under a zero law), the third
        diverges at step 14 and the last stays put."""
        def drift(X):
            return np.column_stack(
                [3.0 * X[:, 0],
                 np.where(np.abs(X[:, 1]) < 3.0, 2.0 * X[:, 1], np.nan)])

        toy = systems.SystemModel(
            2, drift, lambda X: np.broadcast_to(np.diag([3.0, 2.0]),
                                                (len(X), 2, 2)),
            b=[0.0, 1.0], validate=False)

        class Law:
            def control_batch(self, X):
                return -0.5 * X[:, 1]

        X0 = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, 0.0]]
        return toy, Law() if with_law else open_loop(2), X0

    @pytest.mark.parametrize("with_law", [False, True])
    def test_mixed_stack_switches_to_the_index_path(self, with_law):
        trajs = self.assert_same(*self.mixed_stack(with_law), 40)
        assert [t.diverged for t in trajs] == [True, True, True, False]
        assert [t.horizon for t in trajs] == [13, 4 if with_law else 3, 14,
                                              40]
        assert np.isnan(trajs[1].states[-1, 1])

    @pytest.mark.parametrize("chunk", [3, 4, 5, 13, 14], indirect=True)
    def test_divergence_inside_and_at_chunk_ends(self, chunk):
        # the rows end at steps 4, 13 and 14: inside a chunk or on its
        # last step, and the last row runs to the horizon
        trajs = self.assert_same(*self.mixed_stack(True), 40)
        assert [t.horizon for t in trajs] == [13, 4, 14, 40]

    @pytest.mark.parametrize("chunk", [3], indirect=True)
    def test_every_row_diverged_ends_the_chunks(self, chunk):
        toy, law, X0 = self.mixed_stack(True)
        chunks = list(verify_sim.rollout_chunks(toy, law, X0[:3], 40))
        # the last row ends at step 14, so the chunk from step 12 stops
        # after two of its three steps
        assert [c.start for c in chunks] == [0, 3, 6, 9, 12]
        assert chunks[-1].inputs.shape == (3, 2)
        assert [chunks[-1].steps(i) for i in range(3)] == [1, 0, 2]
        self.assert_same(toy, law, X0[:3], 40)

    @pytest.mark.parametrize("chunk", [5], indirect=True)
    @pytest.mark.parametrize("horizon", [14, 15, 16])
    def test_horizons_around_chunk_multiples(self, chunk, horizon,
                                             oscillator, osc_two_step,
                                             control_box):
        trajs = self.assert_same(oscillator, osc_two_step.controller,
                                 systems.boundary_states(control_box, 16),
                                 horizon)
        assert {t.horizon for t in trajs} == {horizon}


def reference_law_grad(model, A_star, X):
    """Gradients at X of u*(x) = (A*_2 . x - f_2(x)) / dt on a matched
    model, b = (0, dt) and row 1 of the drift's Jacobian fixed: u*'s
    closed-loop Jacobian is A* at every state."""
    return (A_star[1] - model.drift_jacobian(X)[:, 1, :]) / model.b[1]


class TestMatchedReferenceLaw:
    """The oscillator is matched, so the reproduction's design points all
    reach one optimal closed-loop Jacobian A*, and the exactly integrable
    law u* with that Jacobian everywhere is a closed-form reference for the
    shipped law on the learned model."""

    @pytest.fixture(scope="class")
    def design(self, reproduction_run, reproduction_law):
        cfg = PipelineConfig(default_oscillator_config())
        model, _ = cli._design_model(cfg, str(reproduction_run))
        report = json.load(open(reproduction_run / "synthesis_report.json"))
        P = np.asarray(report["P"], dtype=float)
        points = systems.grid_points(cfg.control_box, cfg.control_points)
        A = synthesis.closed_loop_jacobians(model, reproduction_law, points)
        A_star = A.mean(axis=0)
        grid = systems.grid_points(cfg.control_box, 257)
        J = model.drift_jacobian(grid)
        return SimpleNamespace(
            model=model, P=P, eps=report["eps"], A=A, J=J,
            grad=reproduction_law.control_grad_batch(grid),
            ref_grad=reference_law_grad(model, A_star, grid))

    @staticmethod
    def margins(d, grad):
        """Certificate-block margins on the grid of the learned closed loop
        J + b grad^T."""
        A = d.J + d.model.b[:, None] * grad[:, None, :]
        return np.linalg.eigvalsh(synthesis.ies_block(d.P, A))[:, 0]

    def test_design_points_share_one_closed_loop_jacobian(self, design):
        assert design.A.shape == (49, 2, 2)
        assert design.model.b[0] == 0.0
        assert np.abs(design.A - design.A[0]).max() <= 1e-10

    def test_reference_law_margin_is_eps_everywhere(self, design):
        margins = self.margins(design, design.ref_grad)
        assert np.abs(margins - design.eps).max() <= 1e-9

    def test_shipped_law_margin_gap_within_weyl_bound(self, design):
        # the learned closed loops of the two laws differ by the rank-one
        # b (grad u - grad u*)^T, so the certificate blocks differ by a
        # symmetric matrix of 2-norm |b| |P (grad u - grad u*)|
        gap = np.abs(self.margins(design, design.grad) - design.eps)
        diff = design.grad - design.ref_grad
        bound = (np.linalg.norm(design.model.b)
                 * np.linalg.norm(diff @ design.P, axis=1))
        assert (bound + 1e-12 - gap).min() >= 0.0
        # the shipped law is not u*: off the design points its margin moves
        assert gap.max() > 1e-3


class TestDivergence:
    def test_rows_classified_as_by_the_two_pass_test(self):
        big = 1e6 * (1.0 + 1e-15)
        assert big > verify_sim.DIVERGENCE_LIMIT
        X = np.array([[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0],
                      [1e6, -1e6], [0.5, big], [-big, 0.0], [0.0, 0.0]])
        want = [True, True, True, False, True, True, False]
        two_pass = np.any(~np.isfinite(X)
                          | (np.abs(X) > verify_sim.DIVERGENCE_LIMIT), axis=-1)
        np.testing.assert_array_equal(two_pass, want)
        np.testing.assert_array_equal(verify_sim._diverged(X), want)
        # a single state, a 1-D row, is classified the same way
        assert [bool(verify_sim._diverged(x)) for x in X] == want


def stepwise_stochastic_rollout(mean, noise_std, control, x0, horizon,
                                seed):
    """The single-state loop of the stochastic rollout that ``rollouts``
    replaced: the callables map a one-row stack to the closed-loop mean
    (1, n), the posterior std (1, n) and the input (1,).  Returns
    (states, inputs, diverged)."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    states = [x.copy()]
    inputs = []
    for _ in range(horizon):
        X = x[None]
        u = float(control(X)[0])
        w = rng.standard_normal(n)
        x = (np.asarray(mean(X), dtype=float)[0]
             + np.asarray(noise_std(X), dtype=float)[0] * w)
        inputs.append(u)
        states.append(x.copy())
        if not (np.abs(x) <= verify_sim.DIVERGENCE_LIMIT).all():
            return np.asarray(states), np.asarray(inputs), True
    return np.asarray(states), np.asarray(inputs), False


def scalar_model(slope):
    """x+ = slope x + u."""
    return systems.SystemModel(
        1, lambda X: slope * X, lambda X: np.full((len(X), 1, 1), slope),
        b=[1.0], validate=False)


def learned_drift(system, box, per_axis, seed):
    """A drift model learned from noisy samples of ``system``."""
    rng = np.random.default_rng(seed)
    pts = systems.grid_points(box, per_axis)
    targets = system.drift(pts) + 0.005 * rng.standard_normal(pts.shape)
    return drift_gp.fit_drift(
        drift_gp.DriftDataset(pts, targets, sigma_y=0.005),
        Kernel(dim=system.n))


class TestStochasticRolloutsBitForBit:
    """On a one-row stack, ``rollouts`` with a noise term gives the bits of
    the single-state stochastic loop, seed by seed."""

    @staticmethod
    def assert_same(design, law, noise_std, x0, horizon, seed):
        def closed_loop_mean(X):
            # the learned loop's mean as the single-state loop built it
            return design.drift(X) + design.b * law.control_batch(X)[:, None]

        states, inputs, diverged = stepwise_stochastic_rollout(
            closed_loop_mean, noise_std, law.control_batch, x0, horizon,
            seed)
        traj, = verify_sim.rollouts(design, law, [x0], horizon,
                                    noise_std=noise_std, seed=seed)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.inputs, inputs)
        assert traj.diverged == diverged and traj.seed == seed
        return traj

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_learned_sine1d(self, seed):
        system = systems.sine1d()
        box = systems.Box.make([0.0], [np.pi])
        model = learned_drift(system, box, 15, 7)
        design = model.as_system_model(b=system.b)
        law = synthesis.run_synthesis(design, Kernel(dim=1),
                                      systems.grid_points(box, 8),
                                      mode="two-step", rho=10.0).controller
        traj = self.assert_same(design, law, model.value_std, [3.0], 300,
                                seed)
        assert not traj.diverged and traj.horizon == 300

    def test_learned_oscillator(self, oscillator, control_box, osc_two_step):
        model = learned_drift(oscillator, control_box, 11, 3)
        traj = self.assert_same(model.as_system_model(b=oscillator.b),
                                osc_two_step.controller, model.value_std,
                                [1.5, -1.0], 500, 11)
        assert not traj.diverged and traj.horizon == 500

    @pytest.mark.parametrize("chunk", [verify_sim.CHUNK, 4], indirect=True)
    def test_diverging_stub(self, chunk):
        # x+ = 3 x + 0.1 w passes the 1e6 limit within the horizon, at
        # step 13, inside the fourth chunk of 4 steps
        traj = self.assert_same(scalar_model(3.0), open_loop(1),
                                lambda X: np.full(X.shape, 0.1), [1.0], 40, 5)
        assert traj.diverged and traj.horizon == 13

    @pytest.mark.parametrize("chunk", [7], indirect=True)
    def test_stream_continues_across_chunks(self, chunk, oscillator,
                                            control_box, osc_two_step):
        model = learned_drift(oscillator, control_box, 11, 3)
        traj = self.assert_same(model.as_system_model(b=oscillator.b),
                                osc_two_step.controller, model.value_std,
                                [1.5, -1.0], 50, 11)
        assert not traj.diverged and traj.horizon == 50


class TestStochasticRollout:
    @staticmethod
    def noise(level):
        return lambda X: np.full(X.shape, level)

    def test_zero_noise_matches_deterministic(self):
        traj, = verify_sim.rollouts(scalar_model(0.5), open_loop(1), [[1.0]],
                                    10,
                                    noise_std=self.noise(0.0), seed=1)
        np.testing.assert_allclose(traj.states.reshape(-1),
                                   [0.5 ** k for k in range(11)], atol=1e-14)

    def test_same_seed_bitwise_identical(self):
        def run(seed):
            return verify_sim.rollouts(scalar_model(0.5), open_loop(1),
                                       [[1.0]], 100,
                                       noise_std=self.noise(0.1),
                                       seed=seed)[0]

        t1, t2, t3 = run(42), run(42), run(43)
        np.testing.assert_array_equal(t1.states, t2.states)
        assert not np.array_equal(t1.states, t3.states)
        assert (t1.seed, t3.seed) == (42, 43)

    def test_rows_share_one_stream(self):
        # the noise of a stack's first step is one draw of the stack's shape
        X0 = np.array([[1.0], [-2.0], [0.5]])
        trajs = verify_sim.rollouts(scalar_model(0.5), open_loop(1), X0, 1,
                                    noise_std=self.noise(0.1), seed=9)
        w = np.random.default_rng(9).standard_normal(X0.shape)
        np.testing.assert_array_equal([t.states[1] for t in trajs],
                                      0.5 * X0 + 0.1 * w)
        assert [t.seed for t in trajs] == [9, 9, 9]

    @pytest.mark.parametrize("chunk", [4], indirect=True)
    def test_rows_share_one_stream_across_chunks(self, chunk):
        # one draw of the stack's shape per step, continued from chunk to
        # chunk: x+ = 0.5 x + 0.1 w under the zero law
        X0 = np.array([[1.0], [-2.0], [0.5]])
        trajs = verify_sim.rollouts(scalar_model(0.5), open_loop(1), X0, 10,
                                    noise_std=self.noise(0.1), seed=9)
        rng = np.random.default_rng(9)
        X, states = X0, [X0]
        for _ in range(10):
            X = 0.5 * X + 0.1 * rng.standard_normal(X.shape)
            states.append(X)
        np.testing.assert_array_equal(np.stack([t.states for t in trajs]),
                                      np.stack(states, axis=1))

    def test_learned_loop_records_inputs(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 1))
        Y = 0.5 * X
        model = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.05),
                                   Kernel(dim=1))
        design = model.as_system_model(b=[1.0])
        ctrl_rep = synthesis.run_synthesis(design, Kernel(dim=1),
                                           np.array([[0.0]]),
                                           mode="two-step")
        traj, = verify_sim.rollouts(design, ctrl_rep.controller, [[0.5]], 10,
                                    noise_std=model.value_std, seed=3)
        expected_u0 = ctrl_rep.controller.control_batch([[0.5]])[0]
        assert traj.inputs[0] == pytest.approx(expected_u0, rel=1e-12)

    def test_second_moment_matches_linear_recursion(self):
        # x+ = 0.5 x + 0.1 w has stationary variance 0.01 / (1 - 0.25)
        trajs = verify_sim.rollouts(scalar_model(0.5), open_loop(1),
                                    np.zeros((10_000, 1)), 50,
                                    noise_std=self.noise(0.1), seed=0)
        finals = [traj.states[-1, 0] for traj in trajs]
        second_moment = float(np.mean(np.square(finals)))
        assert second_moment == pytest.approx(0.01 / 0.75, rel=0.1)


class TestContractionRate:
    def test_identical_trajectories_all_skipped(self, oscillator,
                                                osc_two_step):
        traj = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                   [[1.0, 1.0]], 10)[0]
        lam, info = verify_sim.contraction_rate([(traj, traj)], np.eye(2))
        assert lam == 0.0
        assert info["all_skipped"]

    def test_linear_loop_bounded_by_whitened_norm(self):
        rng = np.random.default_rng(52)
        P, A = random_contracting_pair(rng)
        model = systems.linear_system(A, [0.0, 1.0])
        trajs = [verify_sim.rollouts(model, open_loop(2), [x0], 30)[0]
                 for x0 in rng.normal(size=(4, 2))]
        pairs = [(trajs[0], trajs[1]), (trajs[2], trajs[3])]
        lam, info = verify_sim.contraction_rate(pairs, P)
        from scipy.linalg import eigh

        bound = float(np.sqrt(eigh(A.T @ P @ A, P, eigvals_only=True)[-1]))
        assert lam <= bound + 1e-9
        assert info["used"] > 0

    def test_region_filter_reports_exclusions(self):
        model = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        t1 = verify_sim.rollouts(model, open_loop(2), [[4.0, 0.0]], 10)[0]
        t2 = verify_sim.rollouts(model, open_loop(2), [[0.0, 4.0]], 10)[0]
        box = systems.Box.make([-1, -1], [1, 1])
        lam, info = verify_sim.contraction_rate([(t1, t2)], np.eye(2),
                                                region=box)
        assert info["excluded"] > 0

    def test_mismatched_lengths_rejected(self, oscillator, osc_two_step):
        t1 = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                 [[1.0, 1.0]], 10)[0]
        t2 = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                 [[1.0, 1.0]], 11)[0]
        with pytest.raises(DimensionError):
            verify_sim.contraction_rate([(t1, t2)], np.eye(2))

    def test_step_ratios_bounded_by_grid_factor(self, oscillator,
                                                osc_two_step, control_box):
        # while both trajectories stay in the verified region, every
        # empirical step ratio respects the grid-certified factor
        ver = verify_sim.verify_grid(oscillator, osc_two_step.controller,
                                     osc_two_step.P, control_box, 41)
        W = np.linalg.inv(osc_two_step.P)
        rng = np.random.default_rng(60)
        worst = 0.0
        for _ in range(5):
            t1 = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                     [rng.uniform(-2, 2, 2)], 500)[0]
            t2 = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                     [rng.uniform(-2, 2, 2)], 500)[0]
            lam, _ = verify_sim.contraction_rate([(t1, t2)], W,
                                                 region=control_box)
            worst = max(worst, lam)
        assert worst <= ver.lam + 1e-6

    def test_oscillator_pairs_contract(self, oscillator, osc_two_step):
        rng = np.random.default_rng(53)
        W = np.linalg.inv(osc_two_step.P)
        box = systems.Box.make([-2, -2], [2, 2])
        trajs = [verify_sim.rollouts(oscillator, osc_two_step.controller,
                                     [rng.uniform(-2, 2, size=2)], 300)[0]
                 for _ in range(6)]
        pairs = [(trajs[0], trajs[1]), (trajs[2], trajs[3]),
                 (trajs[4], trajs[5])]
        lam, info = verify_sim.contraction_rate(pairs, W, region=box)
        assert info["used"] > 0
        assert lam < 1.0

    def test_matches_reference_loop(self, oscillator, osc_two_step):
        def reference(pairs, P, region, tiny=1e-12):
            lam, used, skipped, excluded = 0.0, 0, 0, 0
            for ta, tb in pairs:
                A, B = ta.states, tb.states
                for k in range(A.shape[0] - 1):
                    if not (region.contains_rows(A[k:k + 1])[0]
                            and region.contains_rows(B[k:k + 1])[0]):
                        excluded += 1
                        continue
                    d = A[k] - B[k]
                    d0 = np.sqrt(max(d @ P @ d, 0.0))
                    if d0 < tiny:
                        skipped += 1
                        continue
                    d = A[k + 1] - B[k + 1]
                    lam = max(lam, np.sqrt(max(d @ P @ d, 0.0)) / d0)
                    used += 1
            return lam, used, skipped, excluded

        rng = np.random.default_rng(54)
        W = np.linalg.inv(osc_two_step.P)
        box = systems.Box.make([-1.5, -1.5], [1.5, 1.5])
        trajs = verify_sim.rollouts(oscillator, osc_two_step.controller,
                                    rng.uniform(-2, 2, size=(4, 2)), 200)
        pairs = [(trajs[0], trajs[1]), (trajs[2], trajs[3]),
                 (trajs[0], trajs[0])]
        lam, info = verify_sim.contraction_rate(pairs, W, region=box)
        ref_lam, used, skipped, excluded = reference(pairs, W, box)
        assert lam == pytest.approx(ref_lam, rel=1e-12)
        assert (info["used"], info["skipped"], info["excluded"]) == (
            used, skipped, excluded)
        assert used > 0 and skipped > 0 and excluded > 0
