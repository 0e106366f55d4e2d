"""Controller synthesis pipelines.

Three routes produce a constant metric P and a derivative-GP feedback law:

* two-step: pick P from the input-annihilated metric family, then choose
  gradient targets so every closed-loop block is PSD with margin;
* joint: solve a single family over (P, scaled targets) and unscale;
* polytopic: the two-step route with per-cell Jacobian hulls, so the
  certificate extends from data points to cells.

All routes assemble :class:`~contragp.lmi.LmiProblem` instances whose
decision variables are the raw gradient targets (the fitted gradient is an
invertible linear image of them), solve, fit the controller from the
optimizer, and recompute every certificate from the fitted law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, qr

from . import lmi
from .deriv_gp import DerivativeController, DerivativeDataset, build_gram_K0, fit
from .errors import (DataError, InfeasibleError, NumericalFailureError,
                     VertexBudgetError)
from .linalg import chol_with_jitter, eig_min_sym
from .systems import Box, grid_points

__all__ = [
    "left_annihilator",
    "solve_metric",
    "solve_gain",
    "solve_joint",
    "solve_gain_nonconstant_b",
    "build_hulls",
    "VertexHull",
    "SynthesisReport",
    "ies_block",
    "run_synthesis",
]

DEFAULT_RHO = 100.0


# ---------------------------------------------------------------------------
# small algebra helpers


def left_annihilator(b):
    """Orthonormal-row matrix B with B b = 0, shape (n - m, n).

    Deterministic: rows come from a fixed full QR of b, each flipped so its
    largest-magnitude entry is positive.
    """
    B = np.atleast_2d(np.asarray(b, dtype=float))
    if B.shape[0] == 1 and B.shape[1] > 1:
        B = B.T
    n, m = B.shape
    if np.linalg.matrix_rank(B, tol=1e-12 * max(1.0, np.abs(B).max())) < m:
        raise DataError("input matrix must have full column rank")
    Q, _ = qr(B, mode="full")
    rows = Q[:, m:].T.copy()
    for r in rows:
        j = int(np.argmax(np.abs(r)))
        if r[j] < 0:
            r *= -1.0
    return rows


def sym_basis(n):
    """Basis of symmetric n x n matrices matching the vech ordering
    [(0,0), (1,0), (1,1), (2,0), ...]."""
    basis = []
    index = []
    for i in range(n):
        for j in range(i + 1):
            E = np.zeros((n, n))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = E[j, i] = 1.0
            basis.append(E)
            index.append((i, j))
    return basis, index


def unvech(z, n):
    P = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            P[i, j] = P[j, i] = z[k]
            k += 1
    return P


def vech(P):
    n = P.shape[0]
    return np.array([P[i, j] for i in range(n) for j in range(i + 1)])


def ies_block(P, A):
    """The 2n x 2n closed-loop certificate block [[P, (AP)^T], [AP, P]]."""
    n = P.shape[0]
    M = np.zeros((2 * n, 2 * n))
    AP = A @ P
    M[:n, :n] = P
    M[:n, n:] = AP.T
    M[n:, :n] = AP
    M[n:, n:] = P
    return M


# ---------------------------------------------------------------------------
# Jacobian hulls


@dataclass
class VertexHull:
    """Per-cell entrywise Jacobian intervals with vertex enumeration.

    ``lo``/``hi`` hold the interval bounds per cell and matrix entry;
    entries flagged in ``pinned`` were observed constant and stay single
    valued.  ``confidence`` is set when intervals were probabilistically
    inflated.
    """

    cells: list
    centers: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    pinned: np.ndarray
    vertex_cap: int = 4096
    confidence: float | None = None
    subdivisions: int | None = None

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def dim(self):
        return self.centers.shape[1]

    def adjacent_pairs(self):
        """Index pairs of cells sharing a facet (even partitions only)."""
        if self.subdivisions is None:
            return []
        r = self.subdivisions
        n = self.dim
        pairs = []
        for i in range(self.n_cells):
            combo = []
            rest = i
            for _ in range(n):
                combo.append(rest % r)
                rest //= r
            combo = combo[::-1]  # C-order over itertools.product
            for axis in range(n):
                if combo[axis] + 1 < r:
                    j = i + r ** (n - 1 - axis)
                    pairs.append((i, j))
        return pairs

    def vertex_count(self, i):
        return 2 ** int(np.sum(~self.pinned[i]))

    def check_budget(self):
        for i in range(self.n_cells):
            if self.vertex_count(i) > self.vertex_cap:
                raise VertexBudgetError(
                    f"cell {i} needs {self.vertex_count(i)} vertices "
                    f"(cap {self.vertex_cap}); use a finer subdivision or "
                    "group entries more coarsely")

    def vertices(self, i):
        """All interval-endpoint matrices of cell i."""
        free = np.argwhere(~self.pinned[i])
        base = 0.5 * (self.lo[i] + self.hi[i])
        base[~self.pinned[i]] = 0.0
        out = []
        for combo in itertools.product((0, 1), repeat=len(free)):
            V = self.lo[i].copy()
            V[self.pinned[i]] = base[self.pinned[i]]
            for (r, c), pick in zip(free, combo):
                V[r, c] = self.hi[i][r, c] if pick else self.lo[i][r, c]
            out.append(V)
        return out

    def check_membership(self, jac_fn, per_axis=6, tol=1e-9):
        """Certify entrywise that Jacobians over a validation subgrid stay
        inside each cell's intervals.  Returns (ok, max_violation, per_cell).
        """
        worst = 0.0
        per_cell = []
        for i, cell in enumerate(self.cells):
            pts = grid_points(cell, per_axis)
            v = 0.0
            for x in pts:
                J = np.asarray(jac_fn(x), dtype=float)
                v = max(v, float(np.max(self.lo[i] - J)), float(np.max(J - self.hi[i])))
            per_cell.append(v)
            worst = max(worst, v)
        return worst <= tol, worst, per_cell


def build_hulls(model, domain: Box, r, inflation=0.1, samples_per_axis=5,
                vertex_cap=4096):
    """Per-cell entrywise Jacobian hulls over an even box partition.

    The domain splits into ``r`` cells per axis with the data point at each
    cell center.  Entry intervals come from a dense sampling subgrid;
    entries that vary get padded by ``inflation * (observed width + cell
    diameter)`` on each side, while observed-constant entries stay pinned
    at their value.
    """
    if r < 1:
        raise DataError("r must be at least 1")
    n = domain.dim
    edges = [np.linspace(domain.lo[i], domain.hi[i], r + 1) for i in range(n)]
    cells = []
    centers = []
    los, his, pins = [], [], []
    for combo in itertools.product(range(r), repeat=n):
        lo = np.array([edges[i][combo[i]] for i in range(n)])
        hi = np.array([edges[i][combo[i] + 1] for i in range(n)])
        cell = Box.make(lo, hi)
        cells.append(cell)
        centers.append(0.5 * (lo + hi))
        pts = grid_points(cell, samples_per_axis)
        J = np.stack([np.asarray(model.drift_jacobian(x), dtype=float) for x in pts])
        Jlo = J.min(axis=0)
        Jhi = J.max(axis=0)
        width = Jhi - Jlo
        scale = np.maximum(1.0, np.maximum(np.abs(Jlo), np.abs(Jhi)))
        pinned = width <= 1e-10 * scale
        pad = inflation * (width + cell.diameter())
        pad[pinned] = 0.0
        los.append(Jlo - pad)
        his.append(Jhi + pad)
        pins.append(pinned)
    hull = VertexHull(cells=cells, centers=np.asarray(centers),
                      lo=np.stack(los), hi=np.stack(his),
                      pinned=np.stack(pins), vertex_cap=vertex_cap,
                      subdivisions=int(r))
    hull.check_budget()
    return hull


# ---------------------------------------------------------------------------
# synthesis report


@dataclass
class SynthesisReport:
    mode: str
    P: np.ndarray
    eps_p: float | None
    eps: float
    controller: DerivativeController
    solver_margin: float
    points: np.ndarray
    point_margins: np.ndarray
    vertex_margins: list | None = None
    status: str = "optimal"
    diagnostics: dict = field(default_factory=dict)

    def contraction_weight(self):
        """Weight matrix of the norm in which the closed loop contracts
        (the inverse of the block metric P)."""
        return np.linalg.inv(self.P)

    def to_dict(self):
        out = {
            "mode": self.mode,
            "P": [[float(v) for v in row] for row in self.P],
            "eps_p": None if self.eps_p is None else float(self.eps_p),
            "eps": float(self.eps),
            "solver_margin": float(self.solver_margin),
            "status": self.status,
            "points": [[float(v) for v in row] for row in self.points],
            "point_margins": [float(v) for v in self.point_margins],
            "controller": self.controller.to_dict(),
        }
        if self.vertex_margins is not None:
            out["vertex_margins"] = [[float(v) for v in vm] for vm in self.vertex_margins]
        if self.diagnostics:
            out["diagnostics"] = {k: v for k, v in self.diagnostics.items()
                                  if isinstance(v, (int, float, str, bool,
                                                    type(None)))}
        return out


# ---------------------------------------------------------------------------
# step 1: metric selection


def _metric_constraint_mats(model, points, hulls):
    """Jacobian matrices entering the metric family: one per point, or one
    per (cell, vertex) when hulls are given; labels identify the source."""
    mats, labels = [], []
    if hulls is None:
        for i, x in enumerate(points):
            mats.append(np.asarray(model.drift_jacobian(x), dtype=float))
            labels.append(("point", i))
    else:
        for i in range(hulls.n_cells):
            for l, V in enumerate(hulls.vertices(i)):
                mats.append(V)
                labels.append(("cell-vertex", i, l))
    return mats, labels


def solve_metric(model, points, hulls=None, rho=DEFAULT_RHO, config=None):
    """Select a constant metric P with I <= P <= rho I maximizing the
    annihilated one-step decrease margin over the constraint family.

    Returns ``(P, eps_p)``.  For scalar fully-actuated systems the family is
    empty and P = 1 is returned with ``eps_p = None``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise DataError("points must be non-empty")
    n = model.n
    if not model.constant_input:
        raise DataError("solve_metric expects a constant input vector; "
                        "evaluate b pointwise for the non-constant variant")
    Bperp = left_annihilator(model.b)
    if Bperp.shape[0] == 0:
        return np.eye(n), None
    if hulls is not None and not np.allclose(hulls.centers, points):
        raise DataError("points must be the hull cell centers")

    basis, _ = sym_basis(n)
    mdim = len(basis)
    mats, labels = _metric_constraint_mats(model, points, hulls)
    q = Bperp.shape[0]
    blocks = []
    for J, label in zip(mats, labels):
        coeffs = np.stack([Bperp @ (E - J @ E @ J.T) @ Bperp.T for E in basis])
        blocks.append(lmi.AffineBlock(np.zeros((q, q)), coeffs, label=str(label)))
    eye_coeffs = np.stack(basis)
    blocks.append(lmi.AffineBlock(-np.eye(n), eye_coeffs, label="P-lower"))
    blocks.append(lmi.AffineBlock(rho * np.eye(n), -eye_coeffs, label="P-upper"))

    cfg = config or lmi.SolverConfig(width=1e-6 * rho)
    problem = lmi.LmiProblem(dim=mdim, blocks=blocks,
                             initial_z=vech(0.5 * (1.0 + rho) * np.eye(n)))
    sol = lmi.solve(problem, cfg)
    if sol.status == "numerical-failure":
        raise NumericalFailureError("metric solve failed", sol.info.get("trace"))
    per_block = lmi.block_margins(problem, sol.z)
    if sol.status == "infeasible":
        worst = int(np.argmin(per_block[:len(labels)]))
        raise InfeasibleError(
            f"no admissible metric: best margin {sol.info.get('best_margin'):.3e}, "
            f"worst constraint {labels[worst]}",
            best_margin=sol.info.get("best_margin"),
            worst_label=labels[worst])
    P = unvech(sol.z, n)
    eps_p = float(per_block[:len(labels)].min())
    return P, eps_p


# ---------------------------------------------------------------------------
# step 2: gradient-target selection


def _target_maps(kernel, points, sigma_p, need_value_map=False):
    """Linear maps from raw targets to fitted gradient/value rows at the
    data points.  With sigma_p = 0 the gradient map is the identity."""
    X = np.atleast_2d(points)
    N, n = X.shape
    K0 = build_gram_K0(kernel, X)
    if sigma_p == 0.0:
        # the noise-free route needs a nonsingular gradient Gram matrix
        L, _ = chol_with_jitter(K0, jitter=0.0, max_tries=1)
        T = np.eye(N * n)
        Minv = cho_solve((L, True), np.eye(N * n)) if need_value_map else None
    else:
        M = K0 + sigma_p ** 2 * np.eye(N * n)
        L, _ = chol_with_jitter(M)
        Minv = cho_solve((L, True), np.eye(N * n))
        T = np.eye(N * n) - sigma_p ** 2 * Minv
    if not need_value_map:
        return T, None
    rows = kernel.grad_x2_outer(X, X).reshape(N, N * n)
    return T, rows @ Minv


def _gain_problem(model, P, kernel, points, sigma_p, hulls, nonconstant=False):
    X = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = X.shape
    if hulls is not None and not np.allclose(hulls.centers, X):
        raise DataError("points must be the hull cell centers")
    T, Tm = _target_maps(kernel, X, sigma_p, need_value_map=nonconstant)
    dense = sigma_p != 0.0
    blocks = []
    for i in range(N):
        x = X[i]
        b = model.input_at(x)
        db = model.input_jac_at(x) if nonconstant else None
        rows = slice(i * n, (i + 1) * n)
        if dense or nonconstant:
            idx = np.arange(N * n)
        else:
            idx = np.arange(i * n, (i + 1) * n)
        coeffs = []
        for l in idx:
            u = T[rows, l]  # gradient response of point i to target entry l
            G = np.outer(b, u)
            if nonconstant:
                G = G + Tm[i, l] * db
            G = G @ P
            Cb = np.zeros((2 * n, 2 * n))
            Cb[:n, n:] = G.T
            Cb[n:, :n] = G
            coeffs.append(Cb)
        coeffs = np.stack(coeffs)
        if hulls is None:
            blocks.append(lmi.AffineBlock(
                ies_block(P, np.asarray(model.drift_jacobian(x), dtype=float)),
                coeffs, var_indices=idx, label=f"('point', {i})"))
        else:
            for l, V in enumerate(hulls.vertices(i)):
                blocks.append(lmi.AffineBlock(
                    ies_block(P, V), coeffs, var_indices=idx,
                    label=f"('cell-vertex', {i}, {l})"))
    return lmi.LmiProblem(dim=N * n, blocks=blocks,
                          initial_z=np.zeros(N * n))


def _finish_gain(model, P, kernel, X, sigma_p, hulls, sol, mode, eps_p,
                 apply_offset=True):
    targets = sol.z.reshape(X.shape)
    controller = fit(kernel, DerivativeDataset(X, targets, sigma_p))
    if apply_offset and model.equilibrium is not None:
        controller = controller.with_offset_at(model.equilibrium)
    controller.metric = P
    # recompute certificates from the fitted law
    n = model.n
    point_margins = []
    for x in X:
        A = (np.asarray(model.drift_jacobian(x), dtype=float)
             + np.outer(model.input_at(x), controller.control_grad(x)))
        if not model.constant_input:
            A = A + controller.control(x) * model.input_jac_at(x)
        point_margins.append(eig_min_sym(ies_block(P, A)))
    point_margins = np.asarray(point_margins)
    vertex_margins = None
    diagnostics = {"newton_steps": sol.info.get("newton_steps"),
                   "sigma_p": sigma_p}
    if hulls is not None:
        vertex_margins = []
        for i in range(hulls.n_cells):
            g = controller.control_grad(X[i])
            b = model.input_at(X[i])
            vm = [eig_min_sym(ies_block(P, V + np.outer(b, g)))
                  for V in hulls.vertices(i)]
            vertex_margins.append(vm)
        eps = float(min(min(vm) for vm in vertex_margins))
        # reported (not enforced): how much targets jump between adjacent
        # cells, the smoothness proxy of the refinement argument
        pairs = hulls.adjacent_pairs()
        if pairs:
            diagnostics["max_neighbor_target_gap"] = float(max(
                np.linalg.norm(targets[i] - targets[j]) for i, j in pairs))
    else:
        eps = float(point_margins.min())
    return SynthesisReport(
        mode=mode, P=P, eps_p=eps_p, eps=eps, controller=controller,
        solver_margin=float(sol.margin), points=X,
        point_margins=point_margins, vertex_margins=vertex_margins,
        status=sol.status, diagnostics=diagnostics)


def solve_gain(model, P, kernel, points, sigma_p=0.0, hulls=None,
               eps_p=None, config=None, rho=DEFAULT_RHO, apply_offset=True):
    """Choose gradient targets so every closed-loop block is PSD with
    maximal margin, then fit the feedback law from the optimizer."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    P = np.asarray(P, dtype=float)
    problem = _gain_problem(model, P, kernel, X, sigma_p, hulls)
    cfg = config or lmi.SolverConfig(width=1e-6 * rho)
    sol = lmi.solve(problem, cfg)
    if sol.status == "numerical-failure":
        raise NumericalFailureError("gain solve failed", sol.info.get("trace"))
    if sol.status == "infeasible":
        margins = lmi.block_margins(problem, sol.z)
        worst = problem.blocks[int(np.argmin(margins))].label
        raise InfeasibleError(
            f"no admissible gradient targets for this metric: best margin "
            f"{sol.info.get('best_margin'):.3e}, worst constraint {worst}",
            best_margin=sol.info.get("best_margin"), worst_label=worst)
    mode = "polytopic" if hulls is not None else "two-step"
    return _finish_gain(model, P, kernel, X, sigma_p, hulls, sol, mode, eps_p,
                        apply_offset)


def solve_gain_nonconstant_b(model, P, kernel, points, sigma_p=0.0,
                             eps_p=None, config=None, rho=DEFAULT_RHO,
                             apply_offset=True):
    """Gain step for state-dependent input fields: the law value multiplies
    the input Jacobian and its gradient multiplies the input vector, both
    linearly in the raw targets.

    Unlike the constant-input case, an equilibrium offset shifts the value
    term inside the certificate blocks; the report's margins are recomputed
    from the shifted law, so any degradation is visible there.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    P = np.asarray(P, dtype=float)
    problem = _gain_problem(model, P, kernel, X, sigma_p, hulls=None,
                            nonconstant=True)
    cfg = config or lmi.SolverConfig(width=1e-6 * rho)
    sol = lmi.solve(problem, cfg)
    if sol.status == "numerical-failure":
        raise NumericalFailureError("gain solve failed", sol.info.get("trace"))
    if sol.status == "infeasible":
        raise InfeasibleError(
            f"no admissible gradient targets: best margin "
            f"{sol.info.get('best_margin'):.3e}",
            best_margin=sol.info.get("best_margin"))
    return _finish_gain(model, P, kernel, X, sigma_p, None, sol,
                        "two-step-nonconstant-b", eps_p, apply_offset)


# ---------------------------------------------------------------------------
# joint route


def solve_joint(model, kernel, points, rho=DEFAULT_RHO, config=None,
                apply_offset=True):
    """Single family over (P, scaled targets); the noise-free route.

    The scaled targets multiply the input vector directly, so no coupling
    with P appears; afterwards the raw targets are recovered by unscaling
    with P^{-1} and the controller is fitted exactly as in the two-step
    route.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = X.shape
    if not model.constant_input:
        raise DataError("the joint route needs a constant input vector")
    # the noise-free route requires a nonsingular gradient Gram matrix
    K0 = build_gram_K0(kernel, X)
    chol_with_jitter(K0, jitter=0.0, max_tries=1)

    basis, _ = sym_basis(n)
    mP = len(basis)
    dim = mP + N * n
    b = model.b
    blocks = []
    for i in range(N):
        J = np.asarray(model.drift_jacobian(X[i]), dtype=float)
        coeffs = []
        idx = []
        for k, E in enumerate(basis):
            Cb = np.zeros((2 * n, 2 * n))
            JE = J @ E
            Cb[:n, :n] = E
            Cb[n:, n:] = E
            Cb[:n, n:] = JE.T
            Cb[n:, :n] = JE
            coeffs.append(Cb)
            idx.append(k)
        for a in range(n):
            Cb = np.zeros((2 * n, 2 * n))
            G = np.outer(b, np.eye(n)[a])
            Cb[:n, n:] = G.T
            Cb[n:, :n] = G
            coeffs.append(Cb)
            idx.append(mP + i * n + a)
        blocks.append(lmi.AffineBlock(np.zeros((2 * n, 2 * n)), np.stack(coeffs),
                                      var_indices=np.asarray(idx),
                                      label=f"('point', {i})"))
    eyeC = np.stack(basis)
    pidx = np.arange(mP)
    blocks.append(lmi.AffineBlock(-np.eye(n), eyeC, var_indices=pidx,
                                  label="P-lower"))
    blocks.append(lmi.AffineBlock(rho * np.eye(n), -eyeC, var_indices=pidx,
                                  label="P-upper"))
    init = np.zeros(dim)
    init[:mP] = vech(0.5 * (1.0 + rho) * np.eye(n))
    problem = lmi.LmiProblem(dim=dim, blocks=blocks, initial_z=init)
    cfg = config or lmi.SolverConfig(width=1e-6 * rho)
    sol = lmi.solve(problem, cfg)
    if sol.status == "numerical-failure":
        raise NumericalFailureError("joint solve failed", sol.info.get("trace"))
    if sol.status == "infeasible":
        raise InfeasibleError(
            f"joint family infeasible: best margin {sol.info.get('best_margin'):.3e}",
            best_margin=sol.info.get("best_margin"))
    P = unvech(sol.z[:mP], n)
    scaled = sol.z[mP:].reshape(N, n)
    targets = scaled @ np.linalg.inv(P)
    controller = fit(kernel, DerivativeDataset(X, targets, 0.0))
    if apply_offset and model.equilibrium is not None:
        controller = controller.with_offset_at(model.equilibrium)
    controller.metric = P
    point_margins = []
    for x in X:
        A = (np.asarray(model.drift_jacobian(x), dtype=float)
             + np.outer(b, controller.control_grad(x)))
        point_margins.append(eig_min_sym(ies_block(P, A)))
    point_margins = np.asarray(point_margins)
    return SynthesisReport(
        mode="joint", P=P, eps_p=None, eps=float(point_margins.min()),
        controller=controller, solver_margin=float(sol.margin), points=X,
        point_margins=point_margins, status=sol.status,
        diagnostics={"newton_steps": sol.info.get("newton_steps")})


# ---------------------------------------------------------------------------
# orchestration


def run_synthesis(model, kernel, points, mode="two-step", sigma_p=0.0,
                  rho=DEFAULT_RHO, hulls=None, config=None, apply_offset=True):
    """End-to-end synthesis in the requested mode; returns a report."""
    if mode == "joint":
        return solve_joint(model, kernel, points, rho=rho, config=config,
                           apply_offset=apply_offset)
    if mode == "polytopic" and hulls is None:
        raise DataError("polytopic mode requires hulls")
    if mode not in ("two-step", "polytopic"):
        raise DataError(f"unknown synthesis mode '{mode}'")
    P, eps_p = solve_metric(model, points, hulls=hulls, rho=rho, config=config)
    return solve_gain(model, P, kernel, points, sigma_p=sigma_p, hulls=hulls,
                      eps_p=eps_p, config=config, rho=rho,
                      apply_offset=apply_offset)
