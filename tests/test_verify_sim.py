"""Verification and simulation tests: grid margins vs contraction factors,
rollout contracts, seeded stochastic reproducibility, and empirical rate
bounds."""

import json

import numpy as np
import pytest

from contragp import cli, stochastic, synthesis, systems, verify_sim
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


class TestVerifyGrid:
    def test_linear_loop_uniform_margin_and_factor(self):
        rng = np.random.default_rng(51)
        P, A = random_contracting_pair(rng)
        model = systems.linear_system(A, [0.0, 1.0])
        box = systems.Box.make([-1, -1], [1, 1])
        rep = verify_sim.verify_grid(model, None, P, box, 5)
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
        rep = verify_sim.verify_grid(model, None, np.eye(2),
                                     systems.Box.make([-1, -1], [1, 1]), 3)
        assert rep.min_margin < 0.0 and rep.lam > 1.0 and rep.consistent


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
        traj = verify_sim.rollouts(model, None, [[1.0, 1.0]], 100)[0]
        assert traj.diverged
        assert traj.horizon < 100

    def test_bad_horizon_rejected(self, oscillator):
        with pytest.raises(DataError):
            verify_sim.rollouts(oscillator, None, [[0.0, 0.0]], 0)


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
        grow, shrink = verify_sim.rollouts(model, None,
                                           [[1.0, 0.0], [0.0, 1.0]], horizon)
        assert grow.diverged and grow.horizon == 13
        assert grow.inputs.shape == (13,)
        np.testing.assert_allclose(grow.states[:, 0], 3.0 ** np.arange(14))
        assert not shrink.diverged and shrink.horizon == horizon
        np.testing.assert_allclose(shrink.states[:, 1],
                                   0.5 ** np.arange(horizon + 1))

    @pytest.mark.parametrize("with_law", [False, True])
    def test_non_finite_state_is_divergence(self, with_law):
        # doubling map whose drift is NaN once |x| reaches 3: 1, 2, 4, NaN
        def drift(X):
            return np.where(np.abs(X) < 3.0, 2.0 * X, np.nan)

        toy = systems.SystemModel(1, drift,
                                  lambda X: np.full((len(X), 1, 1), 2.0),
                                  b=[1.0], validate=False)
        # a zero law still refuses non-finite states (scipy's check_finite)
        law = (DerivativeController(Kernel(dim=1), [[0.0]], [0.0])
               if with_law else None)
        traj, calm = verify_sim.rollouts(toy, law, [[1.0], [0.0]], 10)
        assert traj.diverged and traj.horizon == 3
        np.testing.assert_array_equal(traj.states[:3, 0], [1.0, 2.0, 4.0])
        assert np.isnan(traj.states[3, 0])
        assert not calm.diverged and calm.horizon == 10

    def test_empty_stack_gives_no_trajectories(self, oscillator):
        assert verify_sim.rollouts(oscillator, None, np.zeros((0, 2)), 5) == []

    def test_non_finite_initial_state_rejected(self, oscillator):
        with pytest.raises(DataError):
            verify_sim.rollouts(oscillator, None, [[np.nan, 0.0]], 5)
        loop = stochastic.StochasticClosedLoop(
            mean=lambda X: X,
            mean_jac=lambda X: np.broadcast_to(np.eye(2), (len(X), 2, 2)),
            noise_std=lambda X: np.zeros((len(X), 2)),
            noise_jac=lambda X: (np.zeros((len(X), 2, 2)),
                                 np.zeros((len(X), 2), dtype=bool)),
            metric=np.eye(2))
        with pytest.raises(DataError):
            verify_sim.rollout_stochastic(loop, [np.inf, 0.0], 5, seed=0)


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
        U = np.zeros(active.size) if law is None else law.control_batch(X)
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
def reproduction_law(tmp_path_factory):
    """The feedback law of the shipped reproduction config."""
    out = tmp_path_factory.mktemp("reproduction_law")
    path = out / "config.json"
    path.write_text(json.dumps(default_oscillator_config()))
    for command in ("gen-data", "learn", "synth"):
        assert cli.main([command, "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
    return DerivativeController.from_dict(
        json.load(open(out / "controller.json")))


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

    @pytest.mark.parametrize("with_law", [False, True])
    def test_mixed_stack_switches_to_the_index_path(self, with_law):
        # x1 triples and x2 doubles until |x2| reaches 3, then turns NaN
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

        # 3^13 > 1e6: the first row diverges at step 13, the second row
        # turns NaN at step 3 (at step 4 under the law), the third
        # diverges at step 14 and the last stays put
        X0 = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, 0.0]]
        trajs = self.assert_same(toy, Law() if with_law else None, X0, 40)
        assert [t.diverged for t in trajs] == [True, True, True, False]
        assert [t.horizon for t in trajs] == [13, 4 if with_law else 3, 14,
                                              40]
        assert np.isnan(trajs[1].states[-1, 1])


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
        # one state at a time, as the stochastic rollout asks
        assert [bool(verify_sim._diverged(x)) for x in X] == want


class TestStochasticRollout:
    def _loop(self, slope=0.5, noise=0.1):
        return stochastic.StochasticClosedLoop(
            mean=lambda X: slope * X,
            mean_jac=lambda X: np.full((len(X), 1, 1), slope),
            noise_std=lambda X: np.full((len(X), 1), noise),
            noise_jac=lambda X: (np.zeros((len(X), 1, 1)),
                                 np.zeros((len(X), 1), dtype=bool)),
            metric=np.array([[1.0]]))

    def test_zero_noise_matches_deterministic(self):
        loop = self._loop(noise=0.0)
        traj = verify_sim.rollout_stochastic(loop, [1.0], 10, seed=1)
        np.testing.assert_allclose(traj.states.reshape(-1),
                                   [0.5 ** k for k in range(11)], atol=1e-14)

    def test_same_seed_bitwise_identical(self):
        loop = self._loop()
        t1 = verify_sim.rollout_stochastic(loop, [1.0], 100, seed=42)
        t2 = verify_sim.rollout_stochastic(loop, [1.0], 100, seed=42)
        np.testing.assert_array_equal(t1.states, t2.states)
        t3 = verify_sim.rollout_stochastic(loop, [1.0], 100, seed=43)
        assert not np.array_equal(t1.states, t3.states)

    def test_learned_loop_records_inputs(self):
        from contragp import drift_gp, stochastic
        from contragp.kernels import Kernel

        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 1))
        Y = 0.5 * X
        model = drift_gp.fit_drift(drift_gp.DriftDataset(X, Y, 0.05),
                                   Kernel(dim=1))
        ctrl_rep = synthesis.run_synthesis(model.as_system_model(b=[1.0]),
                                           Kernel(dim=1), np.array([[0.0]]),
                                           mode="two-step")
        loop = stochastic.StochasticClosedLoop.from_drift_model(
            model, ctrl_rep.controller, np.array([1.0]), np.eye(1))
        traj = verify_sim.rollout_stochastic(loop, [0.5], 10, seed=3)
        expected_u0 = ctrl_rep.controller.control_batch([[0.5]])[0]
        assert traj.inputs[0] == pytest.approx(expected_u0, rel=1e-12)

    def test_second_moment_matches_linear_recursion(self):
        # x+ = 0.5 x + 0.1 w has stationary variance 0.01 / (1 - 0.25)
        loop = self._loop()
        finals = []
        for seed in range(10_000):
            traj = verify_sim.rollout_stochastic(loop, [0.0], 50, seed=seed)
            finals.append(traj.states[-1, 0])
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
        trajs = [verify_sim.rollouts(model, None, [x0], 30)[0]
                 for x0 in rng.normal(size=(4, 2))]
        pairs = [(trajs[0], trajs[1]), (trajs[2], trajs[3])]
        lam, info = verify_sim.contraction_rate(pairs, P)
        from scipy.linalg import eigh

        bound = float(np.sqrt(eigh(A.T @ P @ A, P, eigvals_only=True)[-1]))
        assert lam <= bound + 1e-9
        assert info["used"] > 0

    def test_region_filter_reports_exclusions(self):
        model = systems.linear_system(0.5 * np.eye(2), [0.0, 1.0])
        t1 = verify_sim.rollouts(model, None, [[4.0, 0.0]], 10)[0]
        t2 = verify_sim.rollouts(model, None, [[0.0, 4.0]], 10)[0]
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
