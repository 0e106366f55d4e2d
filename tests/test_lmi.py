"""LMI solver tests: worked families with hand-derived optima, soundness on
randomly constructed feasible problems, monotonicity/scaling properties, and
the independent eigenvalue certification path."""

import math

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


def assemble_block(block, z):
    """C + sum_k z_k A_k for one block."""
    z = np.asarray(z, dtype=float).reshape(-1)
    zk = z if block.var_indices is None else z[block.var_indices]
    if zk.shape[0] == 0:
        return block.const.copy()
    return block.const + np.tensordot(zk, block.coeffs, axes=(0, 0))


def block_margins(problem, z):
    """Per-block smallest eigenvalues at z, one block at a time: the oracle
    of the stacked certificate ``lmi._margins``."""
    margins = []
    for blk in problem.blocks:
        M = assemble_block(blk, z)
        margins.append(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    return np.array(margins)


def assemble_margin(problem, z):
    """Smallest eigenvalue over all assembled blocks at z, through a plain
    symmetric eigensolver and independent of the solve internals."""
    return float(block_margins(problem, z).min())


def stacked_margins(problem, z):
    """The program's certificate: ``lmi._margins`` over the problem's block
    groups."""
    return lmi._margins(lmi._block_groups(problem),
                        np.asarray(z, dtype=float), len(problem.blocks))


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
        assert stacked_margins(p, [0.0]).min() == 0.0

    def test_scalar_family_at_hand_optimum(self):
        assert stacked_margins(scalar_family_problem(),
                               [10.0, -20.0]).min() == pytest.approx(10.0)

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
                M = assemble_block(blk, z)
                ref.append(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
            np.testing.assert_array_equal(stacked_margins(prob, z),
                                          np.array(ref))

    def test_against_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            M = rng.normal(size=(3, 3))
            C = 0.5 * (M + M.T)
            p = lmi.LmiProblem(dim=0, blocks=[lmi.AffineBlock(C, np.zeros((0, 3, 3)))])
            assert stacked_margins(p, []).min() == pytest.approx(
                char_poly_min_eig(C), abs=1e-8)


class TestSoundnessAndProperties:
    def test_soundness_on_random_feasible_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            prob, _ = random_feasible_problem(rng)
            sol = lmi.solve(prob)
            assert sol.status != "infeasible"
            assert assemble_margin(prob, sol.z) >= sol.margin - 1e-8

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
                assemble_margin(prob, sol.z), abs=1e-8)

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


def barrier(ws, w, mu, derivs=True):
    """The centering objective  t/mu + Phi  at w = (z, t), with its gradient
    and Hessian when ``derivs``, as the path takes them from ``lmi._factor``
    and ``lmi._derivs``; None when w is not strictly feasible."""
    point = lmi._factor(ws, w)
    if point is None:
        return None
    val = point[0] + w[-1] / mu
    if not derivs:
        return val
    g, H = lmi._derivs(ws, point[1])
    g[-1] += 1.0 / mu
    return val, g, H


class TestBarrierDerivatives:
    def test_gradient_and_hessian_match_central_differences(self):
        prob, z_star = mixed_problem()
        ws = lmi._Workspace(prob)
        mu = 0.7
        w0 = np.append(z_star, 0.05)
        _, g, H = barrier(ws, w0, mu)

        def f(w):
            return barrier(ws, w, mu, derivs=False)

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
        assert lmi._factor(ws, np.append(z_star, -1e3)) is None
        # entry 0 below its lower bound block
        w = np.append(z_star, 0.05)
        w[0] = -1.5
        assert lmi._factor(ws, w) is None


def forward_substitution_inverse(L):
    """The inverse of one lower-triangular matrix, entry by entry:
    (L^-1)_ij = ([i == j] - sum_{k<i} L_ik (L^-1)_kj) / L_ii."""
    s = L.shape[0]
    Li = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            x = 1.0 if i == j else 0.0
            for k in range(i):
                x -= L[i, k] * Li[k, j]
            Li[i, j] = x / L[i, i]
    return Li


class TestTriangularInverse:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_stack_matches_per_block_forward_substitution(self, s):
        rng = np.random.default_rng(50 + s)
        M = rng.normal(size=(64, s, s))
        L = np.linalg.cholesky(M @ M.mT + 1e-2 * np.eye(s))
        Li = lmi._tril_inv(L)
        np.testing.assert_array_equal(
            Li, np.stack([forward_substitution_inverse(f) for f in L]))
        assert np.all(np.triu(Li, 1) == 0.0)
        resid = np.abs(Li @ L - np.eye(s)).max(axis=(1, 2))
        cond = (np.abs(L).sum(axis=2).max(axis=1)
                * np.abs(Li).sum(axis=2).max(axis=1))
        assert np.all(resid <= 1e-13 * cond)


def generic_barrier(ws, w, mu, derivs=True):
    """The barrier with every block group on the batched path (cholesky,
    a per-block forward-substitution inverse and matmul per coefficient),
    1 x 1 groups included, and the gradient and Hessian terms scattered
    group by group through ``np.add.at``."""
    m = ws.m
    g = np.zeros(m + 1)
    H = np.zeros((m + 1, m + 1))
    phi = 0.0
    for grp in ws.groups:
        try:
            L = np.linalg.cholesky(ws.assemble(grp, w))
        except np.linalg.LinAlgError:
            return None
        diag = np.diagonal(L, axis1=1, axis2=2)
        if np.any(diag <= 0.0):
            return None
        phi -= 2.0 * float(np.sum(np.log(diag)))
        if not derivs:
            continue
        A = grp["coeffs"]
        J, K, s, _ = A.shape
        Li = np.stack([forward_substitution_inverse(f) for f in L])[:, None]
        V = Li @ A @ Li.mT
        np.add.at(g, grp["idx"], -np.einsum("jkaa->jk", V))
        Vflat = V.reshape(J, K, s * s)
        idx = grp["idx"]
        np.add.at(H.reshape(-1),
                  (idx[:, :, None] * (m + 1) + idx[:, None, :]).ravel(),
                  (Vflat @ Vflat.mT).reshape(-1))
    val = phi + w[m] / mu
    if not derivs:
        return val
    g[m] += 1.0 / mu
    return val, g, H


def scalar_blocks_problem(count=256, dim=5, seed=3):
    """``count`` 1 x 1 blocks on three of ``dim`` entries each, strictly
    feasible at z = 0, like the polytopic metric family."""
    rng = np.random.default_rng(seed)
    blocks = [lmi.AffineBlock([[rng.uniform(0.5, 2.0)]],
                              rng.normal(size=(3, 1, 1)),
                              var_indices=rng.choice(dim, 3, replace=False))
              for _ in range(count)]
    return lmi.LmiProblem(dim=dim, blocks=blocks)


class TestScalarBlockGroups:
    @pytest.mark.parametrize("case", ["mixed", "scalar-family"])
    def test_barrier_matches_generic_path(self, case):
        # a 1 x 1 group is factored by a square root and inverted by a
        # reciprocal: the value, gradient and Hessian keep the bits of the
        # batched cholesky, inv and matmul
        if case == "mixed":
            prob, z = mixed_problem()
        else:
            prob, z = scalar_blocks_problem(), np.zeros(5)
        ws = lmi._Workspace(prob)
        assert any(grp["coeffs"].shape[2] == 1 for grp in ws.groups)
        rng = np.random.default_rng(8)
        for t, mu in ((0.05, 0.7), (0.2, 1e-3), (-0.1, 3.0)):
            w = np.append(z + 1e-3 * rng.normal(size=z.shape), t)
            val, g, H = barrier(ws, w, mu)
            ref_val, ref_g, ref_H = generic_barrier(ws, w, mu)
            assert val == ref_val
            np.testing.assert_array_equal(g, ref_g)
            np.testing.assert_array_equal(H, ref_H)
            assert (barrier(ws, w, mu, derivs=False)
                    == generic_barrier(ws, w, mu, derivs=False) == val)

    @pytest.mark.parametrize("value", [0.0, -1e-300, -1.0, np.nan])
    def test_non_positive_or_nan_block_returns_none(self, value):
        prob = scalar_blocks_problem()
        prob.blocks[100].const = np.array([[value]])
        ws = lmi._Workspace(prob)
        w = np.zeros(prob.dim + 1)
        assert lmi._factor(ws, w) is None
        for derivs in (True, False):
            ref = generic_barrier(ws, w, 1.0, derivs)
            if np.isnan(value):
                # a Cholesky factor may carry the NaN through instead of
                # failing; the line search rejects that value like None
                assert ref is None or np.isnan(ref[0] if derivs else ref)
            else:
                assert ref is None

    def test_solution_margins_are_block_margins(self):
        # the per-block margins that solve returns come from its workspace
        # groups, with the bits of the per-block loop
        for prob in (mixed_problem()[0], scalar_blocks_problem()):
            sol = lmi.solve(prob)
            np.testing.assert_array_equal(sol.margins,
                                          stacked_margins(prob, sol.z))
            np.testing.assert_array_equal(sol.margins,
                                          block_margins(prob, sol.z))
            assert sol.margin == sol.margins.min()


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


def jacobi_scaled(H, g):
    """The system the Newton step factors: S H S and S g with
    S = |diag H|^-1/2 (1 where the diagonal is 0), and S's diagonal."""
    d = np.abs(np.diag(H))
    r = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    return r[:, None] * H * r, r * g, r


def scipy_dense_step(H, g):
    """The unscaled Newton step from scipy's dense Cholesky factor of the
    whole Jacobi-scaled system."""
    Hs, gs, r = jacobi_scaled(H, g)
    return r * scipy_newton_step(Hs, gs)[0]


def spd_with_spectrum(rng, eigs):
    Q = np.linalg.qr(rng.normal(size=(len(eigs), len(eigs))))[0]
    return (Q * eigs) @ Q.T


def owner_factor(A, reg):
    """Lower Cholesky factor of one local block A + reg I, in Python
    floats, column by column with each sum in order; None at a pivot that
    is not positive."""
    b = len(A)
    L = [[0.0] * b for _ in range(b)]
    for j in range(b):
        p = A[j][j] + reg
        for q in range(j):
            p = p - L[j][q] * L[j][q]
        if not p > 0.0:
            return None
        L[j][j] = math.sqrt(p)
        for i in range(j + 1, b):
            t = A[i][j]
            for q in range(j):
                t = t - L[i][q] * L[j][q]
            L[i][j] = t / L[j][j]
    return L


def owner_forward(L, row):
    """L^-1 row by forward substitution, each sum in order."""
    y = []
    for i, t in enumerate(row):
        for q in range(i):
            t = t - L[i][q] * y[q]
        y.append(t / L[i][i])
    return y


def owner_backward(L, z):
    """L^-T z by back substitution from the last entry, each sum in
    order."""
    b = len(z)
    x = [0.0] * b
    for i in reversed(range(b)):
        t = z[i]
        for q in range(i + 1, b):
            t = t - L[q][i] * x[q]
        x[i] = t / L[i][i]
    return x


def owner_loop_elimination(H, r, rhs, split, reg):
    """One try of the block elimination, owner by owner: each local
    block's factor, its rows [border columns; right-hand side] solved
    forward and its entries solved back on their own.  The owners' rows
    enter the border's Schur complement through the program's one product
    over a stack, laid out (rows, b, owners) as there."""
    border = split.border.tolist()
    nb = len(border)
    rb = r[split.border]
    S = H[np.ix_(border, border)] * (rb[:, None] * rb) + reg * np.eye(nb)
    s = rhs[split.border].copy()
    owners = []
    for loc, *_ in split.stacks:
        rows = []
        for e in loc.T.tolist():
            L = owner_factor([[H[u, v] * (r[u] * r[v]) for v in e]
                              for u in e], reg)
            if L is None:
                return None
            Y = [owner_forward(L, [H[c, v] * (r[c] * r[v]) for v in e])
                 for c in border] + [owner_forward(L, [rhs[v] for v in e])]
            owners.append((e, L, Y))
            rows.append(Y)
        W = np.array(rows).transpose(1, 2, 0).reshape(nb + 1, -1)
        G = W @ W.T
        S -= G[:nb, :nb]
        s -= G[:nb, nb]
    if nb == 1:
        if not S[0, 0] > 0.0:
            return None
        yb = s / S[0, 0]
    else:
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return None
        yb = np.linalg.solve(S, s)
    y = np.empty(len(r))
    y[split.border] = yb
    for e, L, Y in owners:
        z = []
        for i in range(len(e)):
            t = Y[nb][i]
            for c in range(nb):
                t = t - yb[c] * Y[c][i]
            z.append(t)
        y[e] = owner_backward(L, z)
    return y


def owner_loop_step(H, g, split):
    """The Newton step of ``lmi._newton_solve`` by the same block
    elimination with each local block on its own (see
    ``owner_loop_elimination``) and the same regularizer and escalation;
    None where all six tries fail."""
    hd = np.diagonal(H)
    d = np.abs(hd)
    r = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    reg = 1e-13 * (1.0 + float(np.abs(r * hd * r).max(initial=0.0)))
    for _ in range(6):
        y = owner_loop_elimination(H, r, -g * r, split, reg)
        if y is not None and np.isfinite(y).all():
            return r * y
        reg *= 100.0
    return None


def arrow_system(rng, stacks, nb, orders=0.0):
    """A positive definite Newton system whose local blocks couple with the
    border alone, on randomly permuted entries: ``stacks`` lists (owners,
    block size) pairs.  Each owner adds M M^T over its entries and the
    border; the entries are then scaled over ``orders`` decades.  Returns
    (H, g, split)."""
    n = sum(k * b for k, b in stacks) + nb
    perm = rng.permutation(n)
    border = perm[n - nb:]
    H = 1e-3 * np.eye(n)
    locs, start = [], 0
    for k, b in stacks:
        loc = perm[start:start + k * b].reshape(k, b)
        start += k * b
        locs.append(loc)
        for e in loc:
            idx = np.r_[e, border]
            M = rng.normal(size=(len(idx), len(idx) + 2))
            H[np.ix_(idx, idx)] += M @ M.T
    D = 10.0 ** rng.uniform(-orders, orders, n)
    return D[:, None] * H * D, rng.normal(size=n), lmi._Split(n, locs)


STRUCTURED = {
    "polytopic-like": ([(64, 2)], 1),
    "joint-like": ([(49, 2)], 4),
    "three-per-owner": ([(7, 3)], 2),
    "two-stacks": ([(5, 1), (4, 3)], 3),
}


class TestNewtonStep:
    # the step solves the Jacobi-scaled system by block elimination over
    # the split; the oracles are an owner-by-owner loop of the same
    # elimination (bit for bit) and scipy's dense Cholesky factor of the
    # whole scaled system (to a stated tolerance)
    @pytest.mark.parametrize("case", sorted(STRUCTURED))
    def test_structured_steps_match_owner_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(len(case))
        H, g, split = arrow_system(rng, *STRUCTURED[case], orders=3.0)
        step = lmi._newton_solve(H, g, split)
        np.testing.assert_array_equal(step, owner_loop_step(H, g, split))
        ref = scipy_dense_step(H, g)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_spd_steps_match_owner_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for n in (4, 73, 129):
            A = rng.normal(size=(n, n))
            H, g = A @ A.T + 1e-3 * np.eye(n), rng.normal(size=n)
            split = lmi._Split(n)  # all border: one dense factor
            step = lmi._newton_solve(H, g, split)
            np.testing.assert_array_equal(step, owner_loop_step(H, g, split))
            ref = scipy_dense_step(H, g)
            assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_indefinite_escalates_like_scipy(self, monkeypatch):
        rng = np.random.default_rng(42)
        factors = []
        cholesky_np = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(
            a.shape) or cholesky_np(a))
        for n in (4, 73, 129):
            # reg starts near 2e-13 and needs about 1e-8: three escalations
            H = spd_with_spectrum(rng, np.r_[-1e-8, np.linspace(1.0, 2.0,
                                                                n - 1)])
            g = rng.normal(size=n)
            Hs, gs, r = jacobi_scaled(H, g)
            step, tries = scipy_newton_step(Hs, gs)
            assert tries == 3
            split = lmi._Split(n)
            factors.clear()
            ours = lmi._newton_solve(H, g, split)
            assert len(factors) == tries + 1
            factors.clear()
            np.testing.assert_array_equal(ours, owner_loop_step(H, g, split))
            # the escalated system is nearly singular: about 1e8 times
            # roundoff apart
            assert (np.linalg.norm(ours - r * step)
                    <= 1e-6 * np.linalg.norm(r * step))

    @pytest.mark.parametrize("route", ["two-step", "polytopic", "joint"])
    def test_captured_steps_match_scipy_dense_factor(self, route, oscillator,
                                                     control_points,
                                                     monkeypatch):
        # every Newton system of the route's solves, the metric solve's
        # included: H vanishes off the split's pattern, and the step is
        # scipy's dense Cholesky step to 1e-6 (relative; the largest
        # difference seen was 3e-8)
        from contragp import synthesis, systems
        from contragp.kernels import Kernel
        seen = []
        newton = lmi._newton_solve
        monkeypatch.setattr(lmi, "_newton_solve", lambda H, g, split: seen
                            .append((H.copy(), g.copy(), split))
                            or newton(H, g, split))
        if route == "polytopic":
            hulls = synthesis.build_hulls(
                oscillator, systems.Box.make([-2.0, -2.0], [2.0, 2.0]), 4,
                inflation=0.0)
            synthesis.run_synthesis(oscillator, Kernel(dim=2), hulls.centers,
                                    mode=route, rho=10.0, hulls=hulls)
        else:
            synthesis.run_synthesis(oscillator, Kernel(dim=2), control_points,
                                    mode=route, rho=10.0)
        assert len(seen) > 40
        for H, g, split in seen:
            read = np.zeros(H.shape, dtype=bool)
            read.reshape(-1)[split.bb] = True
            for *_, flat in split.stacks:
                read.reshape(-1)[flat] = True
            assert not H[~(read | read.T)].any()
            ref = scipy_dense_step(H, g)
            assert (np.linalg.norm(newton(H, g, split) - ref)
                    <= 1e-6 * np.linalg.norm(ref))

    def test_failed_local_factor_escalates(self, monkeypatch):
        # one owner's scaled block [[1, c], [c, 1]] has eigenvalue
        # 1 - c = -1e-9: its stacked factor fails until reg passes 1e-9,
        # two escalations for the whole system, as in the owner loop
        rng = np.random.default_rng(45)
        H, g, split = arrow_system(rng, [(6, 2)], 1)
        loc = split.stacks[0][0][:, 2]
        H[np.ix_(loc, loc)] = 2.0 * np.array([[1.0, 1.0 + 1e-9],
                                              [1.0 + 1e-9, 1.0]])
        H[loc, split.border] = H[split.border, loc] = 0.0
        factors = []
        stack_cholesky = lmi._stack_cholesky
        monkeypatch.setattr(lmi, "_stack_cholesky", lambda A, reg: factors
                            .append(reg) or stack_cholesky(A, reg))
        step = lmi._newton_solve(H, g, split)
        assert len(factors) == 3
        np.testing.assert_array_equal(step, owner_loop_step(H, g, split))

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
            (A, b), tries = scipy_newton_step(*jacobi_scaled(H, rhs)[:2])
            assert tries == 6
            solved.clear()
            lmi._newton_solve(H, rhs, lmi._Split(n))
            assert len(solved) == 1
            np.testing.assert_array_equal(solved[0][0], A)
            np.testing.assert_array_equal(solved[0][1], b)

    def test_step_solves_the_unscaled_system(self):
        # entries whose curvature differs by twelve orders, as the metric
        # entries and the level t do near the boundary
        rng = np.random.default_rng(44)
        n = 12
        Q = spd_with_spectrum(rng, np.linspace(1.0, 3.0, n))
        scale = np.logspace(-6, 6, n)
        H, g = scale[:, None] * Q * scale, rng.normal(size=n)
        step = lmi._newton_solve(H, g, lmi._Split(n))
        ref = -np.linalg.solve(Q, g / scale) / scale
        np.testing.assert_allclose(step, ref, rtol=1e-9)


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
