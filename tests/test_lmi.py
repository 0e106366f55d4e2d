"""LMI solver tests: worked families with hand-derived optima, soundness on
randomly constructed feasible problems, monotonicity/scaling properties, and
the independent eigenvalue certification path."""

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from contragp import lmi
from contragp.errors import DataError, DimensionError, UnboundedMarginError


def bound_blocks(lower, upper):
    """The box lower <= z <= upper as 1 x 1 blocks z_i - lower_i >= eps and
    upper_i - z_i >= eps; an infinite bound gives no block."""
    blocks = []
    for sign, bound in ((1.0, lower), (-1.0, upper)):
        for i, b in enumerate(np.asarray(bound, dtype=float)):
            if np.isfinite(b):
                blocks.append(lmi.AffineBlock(np.array([[-sign * b]]),
                                              np.array([[[sign]]]),
                                              var_indices=[i]))
    return blocks


def scalar_family_problem():
    """The block [[P, 2P+q], [2P+q, 20-P]] over z = (P, q).

    Hand analysis: for fixed P the smallest eigenvalue is largest when
    q = -2P zeroes the off-diagonal; the block becomes diag(P, 20-P), with
    margin min(P, 20-P).  So the optimal margin is 10 at (P, q) = (10, -20).
    """
    coeffs = np.array([[[1.0, 2.0], [2.0, -1.0]],
                       [[0.0, 1.0], [1.0, 0.0]]])
    return lmi.LmiProblem(
        dim=2, blocks=[lmi.AffineBlock(np.diag([0.0, 20.0]), coeffs)])


def char_poly_min_eig(M):
    """Smallest eigenvalue of a symmetric 3x3 via characteristic-polynomial
    roots: an eigensolver-independent oracle."""
    a = -float(np.trace(M))
    b = 0.5 * (np.trace(M) ** 2 - np.trace(M @ M))
    c = -float(np.linalg.det(M))
    roots = np.roots([1.0, a, b, c])
    return float(np.real(roots).min())


def random_feasible_problem(rng):
    m = int(rng.integers(1, 4))
    nb = int(rng.integers(1, 4))
    z_star = rng.normal(size=m)
    blocks = []
    for _ in range(nb):
        s = int(rng.integers(1, 4))
        A = rng.normal(size=(m, s, s))
        A = 0.5 * (A + A.transpose(0, 2, 1))
        D = rng.normal(size=(s, s))
        C = D @ D.T + 0.3 * np.eye(s) - np.tensordot(z_star, A, axes=(0, 0))
        blocks.append(lmi.AffineBlock(C, A))
    return lmi.LmiProblem(
        dim=m, blocks=blocks + bound_blocks(z_star - 2.0, z_star + 2.0)), z_star


class TestWorkedExamples:
    def test_constant_block_no_variables(self):
        p = lmi.LmiProblem(dim=0,
                           blocks=[lmi.AffineBlock(np.eye(2), np.zeros((0, 2, 2)))])
        sol = lmi.solve(p)
        assert sol.status == "optimal"
        assert sol.margin == pytest.approx(1.0)
        assert sol.z.shape == (0,)

    def test_scalar_family_optimum(self):
        sol = lmi.solve(scalar_family_problem())
        assert sol.status == "optimal"
        assert sol.margin == pytest.approx(10.0, abs=1e-4)
        assert sol.z[0] == pytest.approx(10.0, abs=1e-3)
        assert sol.z[1] == pytest.approx(-20.0, abs=2e-3)

    def test_bounded_infeasible_reports_best_margin(self):
        # margin min(z - 1, z + 0.5, 0.5 - z): z - 1 and 0.5 - z meet at
        # z = 0.75, where the best margin is -0.25
        p = lmi.LmiProblem(
            dim=1, blocks=[lmi.AffineBlock(np.array([[-1.0]]),
                                           np.array([[[1.0]]]))]
            + bound_blocks([-0.5], [0.5]))
        sol = lmi.solve(p)
        assert sol.status == "infeasible"
        assert sol.info["best_margin"] == pytest.approx(-0.25, abs=1e-3)
        assert sol.z[0] == pytest.approx(0.75, abs=1e-3)

    def test_unbounded_margin_raises(self):
        p = lmi.LmiProblem(dim=1,
                           blocks=[lmi.AffineBlock(np.array([[0.0]]),
                                                   np.array([[[1.0]]]))])
        with pytest.raises(UnboundedMarginError, match="normalization"):
            lmi.solve(p)


class TestAssembleMargin:
    def test_all_zero_problem(self):
        p = lmi.LmiProblem(dim=1,
                           blocks=[lmi.AffineBlock(np.zeros((2, 2)),
                                                   np.zeros((1, 2, 2)))])
        assert lmi.assemble_margin(p, [0.0]) == 0.0

    def test_scalar_family_at_hand_optimum(self):
        assert lmi.assemble_margin(scalar_family_problem(),
                                   [10.0, -20.0]) == pytest.approx(10.0)

    def test_block_margins_match_per_block_loop(self):
        # the stacked assembly gives the per-block loop's bits. Beyond
        # mixed_problem's repeated index and 1x1 bounds: blocks with no
        # coefficients, a 1x1 block on a repeated index, and indexed 3x3
        # blocks (one repeating an entry) that share the full-index
        # block's group
        prob, z_star = mixed_problem()
        rng = np.random.default_rng(12)

        def sym(*shape):
            A = rng.normal(size=shape)
            return 0.5 * (A + np.swapaxes(A, -1, -2))

        extra = {1: lmi.AffineBlock(sym(2, 2), np.zeros((0, 2, 2)),
                                    var_indices=[]),
                 3: lmi.AffineBlock(sym(3, 3), sym(4, 3, 3),
                                    var_indices=[3, 1, 0, 2]),
                 5: lmi.AffineBlock(sym(1, 1), np.zeros((0, 1, 1)),
                                    var_indices=[]),
                 7: lmi.AffineBlock(sym(3, 3), sym(4, 3, 3),
                                    var_indices=[2, 2, 0, 2]),
                 9: lmi.AffineBlock(sym(1, 1), sym(2, 1, 1),
                                    var_indices=[3, 3])}
        for at, blk in extra.items():
            prob.blocks.insert(at, blk)
        prob.validate()
        shared = [js for js, *_ in lmi._block_groups(prob) if 0 in js]
        assert set(shared[0]) == {0, 3, 7}
        for z in (z_star, z_star + np.array([2.0, -1.0, 0.5, 3.0]),
                  np.zeros(4)):
            ref = []
            for blk in prob.blocks:
                M = lmi.assemble_block(blk, z)
                ref.append(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
            np.testing.assert_array_equal(lmi.block_margins(prob, z),
                                          np.array(ref))

    def test_against_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            M = rng.normal(size=(3, 3))
            C = 0.5 * (M + M.T)
            p = lmi.LmiProblem(dim=0, blocks=[lmi.AffineBlock(C, np.zeros((0, 3, 3)))])
            assert lmi.assemble_margin(p, []) == pytest.approx(
                char_poly_min_eig(C), abs=1e-8)


class TestSoundnessAndProperties:
    def test_soundness_on_random_feasible_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            prob, _ = random_feasible_problem(rng)
            sol = lmi.solve(prob)
            assert sol.status != "infeasible"
            assert lmi.assemble_margin(prob, sol.z) >= sol.margin - 1e-8

    def test_adding_a_block_never_improves_margin(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            prob, z_star = random_feasible_problem(rng)
            base = lmi.solve(prob).margin
            s = 2
            A = rng.normal(size=(prob.dim, s, s))
            A = 0.5 * (A + A.transpose(0, 2, 1))
            D = rng.normal(size=(s, s))
            C = D @ D.T + 0.1 * np.eye(s) - np.tensordot(z_star, A, axes=(0, 0))
            bigger = lmi.LmiProblem(dim=prob.dim,
                                    blocks=prob.blocks + [lmi.AffineBlock(C, A)])
            assert lmi.solve(bigger).margin <= base + 1e-6

    def test_margin_scales_with_problem_data(self):
        rng = np.random.default_rng(44)
        prob, _ = random_feasible_problem(rng)
        sol = lmi.solve(prob)
        s = 3.7
        scaled = lmi.LmiProblem(
            dim=prob.dim,
            blocks=[lmi.AffineBlock(s * b.const, s * b.coeffs, b.var_indices)
                    for b in prob.blocks])
        sol_s = lmi.solve(scaled)
        assert sol_s.margin == pytest.approx(s * sol.margin, rel=1e-3)
        np.testing.assert_allclose(sol_s.z, sol.z, atol=2e-3)

    def test_reported_margin_equals_recomputation(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            prob, _ = random_feasible_problem(rng)
            sol = lmi.solve(prob)
            assert sol.margin == pytest.approx(
                lmi.assemble_margin(prob, sol.z), abs=1e-8)

    def test_deterministic_given_identical_input(self):
        prob1, _ = random_feasible_problem(np.random.default_rng(46))
        prob2, _ = random_feasible_problem(np.random.default_rng(46))
        s1 = lmi.solve(prob1)
        s2 = lmi.solve(prob2)
        np.testing.assert_array_equal(s1.z, s2.z)
        assert s1.margin == s2.margin
        record = ("newton_steps", "barrier_stages", "backtracks", "final_mu")
        assert ({k: s1.info[k] for k in record}
                == {k: s2.info[k] for k in record})
        assert s1.info["newton_steps"] > 0
        assert s1.info["barrier_stages"] >= 1
        assert s1.info["backtracks"] >= 0
        assert 0.0 < s1.info["final_mu"] <= max(1.0, abs(s1.margin))

    def test_repeated_var_indices_accumulate(self):
        # a block listing decision entry 0 twice, with coefficient A1 each
        # time, is the block with 2 A1 on entry 0; the Hessian must add both
        # copies as the value and gradient do
        A1 = np.array([[1.0, 0.5], [0.5, -1.0]])
        A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        C = np.array([[1.0, 0.2], [0.2, 2.0]])
        box = bound_blocks([-1.0, -2.0], [1.0, 2.0])
        repeated = lmi.solve(lmi.LmiProblem(dim=2, blocks=[lmi.AffineBlock(
            C, np.stack([A1, A2, A1]), var_indices=[0, 1, 0])] + box))
        merged = lmi.solve(lmi.LmiProblem(dim=2, blocks=[lmi.AffineBlock(
            C, np.stack([2.0 * A1, A2]), var_indices=[0, 1])] + box))
        assert repeated.status == merged.status == "optimal"
        assert (repeated.info["newton_steps"]
                == merged.info["newton_steps"])
        np.testing.assert_allclose(repeated.z, merged.z, rtol=0, atol=1e-9)
        assert repeated.margin == pytest.approx(merged.margin, abs=1e-9)


def mixed_problem():
    """Four decision entries; a full-index 3x3 block, sparse 2x2 and 1x1
    blocks (one with a repeated index), and bound blocks: a lower bound only
    on entry 0 and both bounds on entries 1 and 3.  Every block is positive
    definite at z_star, which lies inside the box."""
    rng = np.random.default_rng(7)
    z_star = np.array([0.3, -0.2, 0.5, 0.1])

    def block(s, idx):
        k = 4 if idx is None else len(idx)
        A = rng.normal(size=(k, s, s))
        A = 0.5 * (A + A.transpose(0, 2, 1))
        D = rng.normal(size=(s, s))
        zk = z_star if idx is None else z_star[idx]
        C = D @ D.T + 0.5 * np.eye(s) - np.tensordot(zk, A, axes=(0, 0))
        return lmi.AffineBlock(C, A, var_indices=idx)

    blocks = [block(3, None), block(2, [0, 2]), block(2, [1, 3]),
              block(2, [3, 2]), block(1, [2]), block(1, [1, 0, 1])]
    blocks += bound_blocks([-1.0, -1.0, -np.inf, -2.0],
                           [np.inf, 1.0, np.inf, 2.0])
    return lmi.LmiProblem(dim=4, blocks=blocks), z_star


class TestBarrierDerivatives:
    def test_gradient_and_hessian_match_central_differences(self):
        prob, z_star = mixed_problem()
        ws = lmi._Workspace(prob)
        mu = 0.7
        w0 = np.append(z_star, 0.05)
        _, g, H = lmi._barrier(ws, w0, mu)

        def f(w):
            return lmi._barrier(ws, w, mu, derivs=False)

        n = w0.shape[0]
        eye = np.eye(n)
        h1 = 1e-6
        g_fd = np.array([(f(w0 + h1 * e) - f(w0 - h1 * e)) / (2 * h1)
                         for e in eye])
        np.testing.assert_allclose(g, g_fd, rtol=0,
                                   atol=1e-6 * np.abs(g).max())
        h2 = 1e-4
        H_fd = np.array([[(f(w0 + h2 * (a + b)) - f(w0 + h2 * (a - b))
                           - f(w0 - h2 * (a - b)) + f(w0 - h2 * (a + b)))
                          / (4 * h2 * h2) for b in eye] for a in eye])
        np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(H, H_fd, rtol=0,
                                   atol=1e-5 * np.abs(H).max())

    def test_infeasible_point_returns_none(self):
        prob, z_star = mixed_problem()
        ws = lmi._Workspace(prob)
        # t far below minus every margin makes a block indefinite
        assert lmi._barrier(ws, np.append(z_star, -1e3), 1.0) is None
        # entry 0 below its lower bound block
        w = np.append(z_star, 0.05)
        w[0] = -1.5
        assert lmi._barrier(ws, w, 1.0, derivs=False) is None


def scipy_newton_step(H, g):
    """The Newton step through scipy's validated ``cholesky`` and
    ``solve_triangular``, with the number of regularizer escalations; when
    all six tries fail, the (matrix, rhs) handed to lstsq instead."""
    reg = 1e-13 * (1.0 + float(np.abs(np.diag(H)).max(initial=0.0)))
    eye = np.eye(H.shape[0])
    for tries in range(6):
        try:
            L = cholesky(H + reg * eye, lower=True)
            return solve_triangular(L.T, solve_triangular(L, -g, lower=True),
                                    lower=False), tries
        except Exception:
            reg *= 100.0
    return (H + reg * eye, -g), 6


def spd_with_spectrum(rng, eigs):
    Q = np.linalg.qr(rng.normal(size=(len(eigs), len(eigs))))[0]
    return (Q * eigs) @ Q.T


class TestNewtonStep:
    def test_spd_steps_match_scipy_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for n in (4, 73, 129):
            A = rng.normal(size=(n, n))
            H, g = A @ A.T + 1e-3 * np.eye(n), rng.normal(size=n)
            step, tries = scipy_newton_step(H, g)
            assert tries == 0
            np.testing.assert_array_equal(lmi._newton_solve(H, g), step)

    def test_indefinite_escalates_like_scipy(self, monkeypatch):
        rng = np.random.default_rng(42)
        factors = []
        dpotrf = lmi.dpotrf
        monkeypatch.setattr(lmi, "dpotrf", lambda *a, **kw: factors.append(
            a[0].shape) or dpotrf(*a, **kw))
        for n in (4, 73, 129):
            # reg starts near 1e-13 and needs 1e-8: three escalations
            H = spd_with_spectrum(rng, np.r_[-1e-8, np.linspace(1.0, 2.0,
                                                                n - 1)])
            g = rng.normal(size=n)
            step, tries = scipy_newton_step(H, g)
            assert tries == 3
            factors.clear()
            np.testing.assert_array_equal(lmi._newton_solve(H, g), step)
            assert len(factors) == tries + 1

    def test_failed_tries_and_non_finite_input_take_lstsq(self, monkeypatch):
        rng = np.random.default_rng(43)
        solved = []
        monkeypatch.setattr(np.linalg, "lstsq", lambda A, b, rcond: solved
                            .append((A, b)) or (np.zeros_like(b),))
        n = 6
        spd = spd_with_spectrum(rng, np.linspace(1.0, 2.0, n))
        nan_upper = spd.copy()
        nan_upper[0, -1] = np.nan  # outside the lower triangle the factor reads
        g = rng.normal(size=n)
        g_inf = g.copy()
        g_inf[2] = np.inf
        for H, rhs in ((spd_with_spectrum(rng, np.r_[-1.0, np.ones(n - 1)]), g),
                       (nan_upper, g), (spd, g_inf)):
            (A, b), tries = scipy_newton_step(H, rhs)
            assert tries == 6
            solved.clear()
            lmi._newton_solve(H, rhs)
            assert len(solved) == 1
            np.testing.assert_array_equal(solved[0][0], A)
            np.testing.assert_array_equal(solved[0][1], b)


class TestValidationAndDump:
    def test_empty_blocks_rejected(self):
        with pytest.raises(DataError):
            lmi.LmiProblem(dim=1, blocks=[]).validate()

    def test_non_finite_blocks_rejected(self):
        blk = lmi.AffineBlock(np.array([[np.nan]]), np.array([[[1.0]]]))
        with pytest.raises(DataError, match="non-finite"):
            lmi.LmiProblem(dim=1, blocks=[blk]).validate()

    def test_asymmetric_const_rejected(self):
        blk = lmi.AffineBlock(np.array([[0.0, 1.0], [0.0, 0.0]]),
                              np.zeros((1, 2, 2)))
        with pytest.raises(DataError, match="symmetric"):
            lmi.LmiProblem(dim=1, blocks=[blk]).validate()

    @staticmethod
    def _problem_with(bad, at=2, dim=2):
        """Four good 2x2 blocks over a decision vector of length ``dim``,
        with ``bad`` in place of block ``at``."""
        good = [lmi.AffineBlock(np.eye(2), np.stack([np.eye(2)] * dim))
                for _ in range(4)]
        good[1] = lmi.AffineBlock(np.eye(2), np.eye(2)[None], var_indices=[1])
        good[at] = bad
        return lmi.LmiProblem(dim=dim, blocks=good)

    @pytest.mark.parametrize("bad, error, message", [
        (lmi.AffineBlock(np.ones((2, 3)), np.zeros((2, 2, 3))),
         DimensionError, r"blocks\[2\]\.const"),
        (lmi.AffineBlock(np.eye(2), np.zeros((2, 3, 3))),
         DimensionError, r"blocks\[2\]\.coeffs"),
        (lmi.AffineBlock(np.eye(2), np.zeros((3, 2, 2))),
         DimensionError, r"blocks\[2\]\.coeffs.*2 matrices"),
        (lmi.AffineBlock(np.eye(2), np.zeros((2, 2, 2)), var_indices=[0]),
         DimensionError, r"blocks\[2\]\.var_indices"),
        (lmi.AffineBlock(np.eye(2), np.zeros((2, 2, 2)), var_indices=[0, 2]),
         DataError, r"blocks\[2\]\.var_indices out of range"),
        (lmi.AffineBlock(np.eye(2), np.zeros((1, 2, 2)), var_indices=[-1]),
         DataError, r"blocks\[2\]\.var_indices out of range"),
        (lmi.AffineBlock(np.array([[1.0, np.inf], [np.inf, 1.0]]),
                         np.zeros((2, 2, 2))),
         DataError, r"blocks\[2\] contains non-finite"),
        (lmi.AffineBlock(np.eye(2), np.full((2, 2, 2), np.nan)),
         DataError, r"blocks\[2\] contains non-finite"),
        (lmi.AffineBlock(np.array([[1.0, 1e-3], [0.0, 1.0]]),
                         np.zeros((2, 2, 2))),
         DataError, r"blocks\[2\]\.const is not symmetric"),
    ])
    def test_error_names_offending_block(self, bad, error, message):
        with pytest.raises(error, match=message):
            self._problem_with(bad).validate()

    def test_first_offending_block_is_named(self):
        # block 3 fails an earlier check than block 1 does; the error still
        # names block 1
        prob = self._problem_with(
            lmi.AffineBlock(np.eye(2), np.eye(2)[None], var_indices=[5]), at=1)
        prob.blocks[3] = lmi.AffineBlock(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                         np.zeros((2, 2, 2)))
        with pytest.raises(DataError, match=r"blocks\[1\]\.var_indices"):
            prob.validate()

    def test_tolerated_asymmetry_passes(self):
        # within np.allclose's tolerances of the transpose
        C = np.array([[1.0, 0.5], [0.5 + 1e-7, 1.0]])
        self._problem_with(lmi.AffineBlock(C, np.zeros((2, 2, 2)))).validate()
