"""Controller synthesis pipelines.

Three routes produce a constant metric P and a derivative-GP feedback law:

* two-step: pick P from the input-annihilated metric family, then choose
  the law's design-point gradients so every block is PSD with margin;
* joint: solve a single family over (P, scaled gradients) and unscale;
* polytopic: the two-step route with per-cell Jacobian hulls, so the
  certificate extends from data points to cells.

The decision variables are the law's gradients g_i at the design points,
so every route's condition is the affine family [[P, (A_i P)^T], [A_i P,
P]] >= 0 with A_i = J_i + b g_i^T.  All routes assemble
:class:`~contragp.lmi.LmiProblem` instances over the design Jacobians (or
hull vertices) of :func:`_metric_constraint_mats`, solve them through one
helper that raises on failure, and finish in :func:`_finish_gain`: the law's
weights are K0^{-1} g from the route's one factor of K0, zeroed at the
model's equilibrium, and every certificate is recomputed from one stack of
:func:`ies_block` blocks of :func:`closed_loop_jacobians`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, qr

from . import lmi
from .deriv_gp import DerivativeController, build_gram_K0
from .errors import (DataError, FactorizationError, InfeasibleError,
                     NumericalFailureError, VertexBudgetError)
from .systems import Box, grid_points

__all__ = [
    "left_annihilator",
    "solve_metric",
    "solve_gain",
    "solve_joint",
    "closed_loop_jacobians",
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
    for i in range(n):
        for j in range(i + 1):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
    return basis


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
    """The 2n x 2n closed-loop certificate block [[P, (AP)^T], [AP, P]] of
    A, or the (B, 2n, 2n) stack of blocks of a (B, n, n) stack A."""
    n = P.shape[0]
    AP = A @ P
    M = np.zeros(AP.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = P
    M[..., :n, n:] = np.swapaxes(AP, -1, -2)
    M[..., n:, :n] = AP
    M[..., n:, n:] = P
    return M


def _offdiag(G):
    """The symmetric block [[0, G^T], [G, 0]] of a square G."""
    n = G.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = G.T
    M[n:, :n] = G
    return M


def closed_loop_jacobians(model, controller, X, jacs=None):
    """Closed-loop Jacobians J(x) + b(x) grad u(x)^T at the rows of X, plus
    u(x) db(x) when the input vector varies with the state; (B, n, n).
    ``jacs``, one per row, replaces J(x): a hull vertex at its cell center."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if jacs is None:
        jacs = model.drift_jacobian(X)
    grads = controller.control_grad_batch(X)
    A = (np.asarray(jacs, dtype=float)
         + model.input(X)[:, :, None] * grads[:, None, :])
    if not model.constant_input:
        A = A + controller.control_batch(X)[:, None, None] * model.input_jac(X)
    return A


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
        inside each cell's intervals; ``jac_fn`` maps a stack of states to
        its Jacobians.  Returns (ok, max_violation, per_cell).
        """
        J = _cell_jacobians(jac_fn, self.cells, per_axis)
        excess = np.maximum(self.lo[:, None] - J, J - self.hi[:, None])
        per_cell = np.maximum(
            excess.reshape(self.n_cells, -1).max(axis=1), 0.0)
        worst = float(per_cell.max())
        return worst <= tol, worst, per_cell.tolist()


def _cell_jacobians(jac_fn, cells, per_axis):
    """Jacobians at every cell's sampling subgrid from one call on all the
    cells' samples; shape (cells, samples, n, n)."""
    pts = np.concatenate([grid_points(cell, per_axis) for cell in cells])
    J = np.asarray(jac_fn(pts), dtype=float)
    return J.reshape((len(cells), -1) + J.shape[1:])


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
    cells = [Box.make([edges[i][c] for i, c in enumerate(combo)],
                      [edges[i][c + 1] for i, c in enumerate(combo)])
             for combo in itertools.product(range(r), repeat=n)]
    centers = np.array([0.5 * (cell.lo_arr + cell.hi_arr) for cell in cells])
    J = _cell_jacobians(model.drift_jacobian, cells, samples_per_axis)
    Jlo = J.min(axis=1)
    Jhi = J.max(axis=1)
    width = Jhi - Jlo
    scale = np.maximum(1.0, np.maximum(np.abs(Jlo), np.abs(Jhi)))
    pinned = width <= 1e-10 * scale
    diameters = np.array([cell.diameter() for cell in cells])
    pad = inflation * (width + diameters[:, None, None])
    pad[pinned] = 0.0
    hull = VertexHull(cells=cells, centers=centers, lo=Jlo - pad,
                      hi=Jhi + pad, pinned=pinned, vertex_cap=vertex_cap,
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
    """Jacobian matrices entering every family: one per point, or one per
    (cell, vertex) when hulls are given; labels identify the source, and
    their second entry is the index of the point."""
    if hulls is not None and not np.allclose(hulls.centers, points):
        raise DataError("points must be the hull cell centers")
    if hulls is None:
        mats = np.asarray(model.drift_jacobian(points), dtype=float)
        return mats, [("point", i) for i in range(len(points))]
    mats, labels = [], []
    for i in range(hulls.n_cells):
        for l, V in enumerate(hulls.vertices(i)):
            mats.append(V)
            labels.append(("cell-vertex", i, l))
    return mats, labels


_P_BOUNDS = ("P-lower", "P-upper")


def _metric_bounds(n, rho):
    """I <= P <= rho I over the vech entries of P, the leading decision
    entries."""
    basis = np.stack(sym_basis(n))
    idx = np.arange(len(basis))
    return [lmi.AffineBlock(-np.eye(n), basis, var_indices=idx,
                            label=_P_BOUNDS[0]),
            lmi.AffineBlock(rho * np.eye(n), -basis, var_indices=idx,
                            label=_P_BOUNDS[1])]


def _solve(problem, rho, what):
    """Solve to within 1e-6 rho of the best margin.

    Raises NumericalFailureError on a numerical failure, and InfeasibleError
    naming the worst constraint of the family (never a metric bound) when
    the solver finds the family infeasible.
    """
    sol = lmi.solve(problem, width=1e-6 * rho)
    if sol.status == "numerical-failure":
        raise NumericalFailureError(f"{what} solve failed",
                                    sol.info.get("trace"))
    if sol.status == "infeasible":
        margins = lmi.block_margins(problem, sol.z)
        family = [j for j, blk in enumerate(problem.blocks)
                  if blk.label not in _P_BOUNDS]
        worst = problem.blocks[family[int(np.argmin(margins[family]))]].label
        best = sol.info.get("best_margin")
        raise InfeasibleError(
            f"{what} family infeasible: best margin {best:.3e}, "
            f"worst constraint {worst}", best_margin=best, worst_label=worst)
    return sol


def solve_metric(model, points, hulls=None, rho=DEFAULT_RHO):
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
    basis = sym_basis(n)
    q = Bperp.shape[0]
    mats, labels = _metric_constraint_mats(model, points, hulls)
    blocks = [lmi.AffineBlock(
        np.zeros((q, q)),
        np.stack([Bperp @ (E - J @ E @ J.T) @ Bperp.T for E in basis]),
        label=str(label)) for J, label in zip(mats, labels)]
    problem = lmi.LmiProblem(dim=len(basis),
                             blocks=blocks + _metric_bounds(n, rho),
                             initial_z=vech(0.5 * (1.0 + rho) * np.eye(n)))
    sol = _solve(problem, rho, "metric")
    eps_p = float(lmi.block_margins(problem, sol.z)[:len(labels)].min())
    return unvech(sol.z, n), eps_p


# ---------------------------------------------------------------------------
# step 2: gain selection over the law's design-point gradients


def _gram_factor(kernel, X):
    """The gradient Gram matrix K0 of the design points and its lower
    Cholesky factor, with no jitter: the gain variables are the law's
    gradients g there, and its weights are K0^{-1} g."""
    K0 = build_gram_K0(kernel, X)
    try:
        return K0, cholesky(K0, lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            "the gradient Gram matrix K0 of the design points must factor "
            "without jitter; use fewer or better-separated design "
            "points") from exc


def _gain_problem(model, P, kernel, X, L, mats, labels):
    """Blocks [[P, (A P)^T], [A P, P]] with A = J + b g^T (+ u db for a
    state-dependent input vector) affine in the law's gradients g at the
    design points, one per design Jacobian or hull vertex of ``mats``.
    Only a state-dependent input vector couples the points, through the
    law's values rows @ K0^{-1} g."""
    N, n = X.shape
    nonconstant = not model.constant_input
    eye = np.eye(N * n)
    bs = model.input(X)
    if nonconstant:
        rows = kernel.grad_x2_outer(X, X).reshape(N, N * n)
        values = rows @ cho_solve((L, True), eye)
        dbs = model.input_jac(X)
    coeffs, cols = [], []
    for i, b in enumerate(bs):
        own = np.arange(i * n, (i + 1) * n)
        idx = np.arange(N * n) if nonconstant else own
        per_var = []
        for l in idx:
            G = np.outer(b, eye[own, l])  # response of point i to variable l
            if nonconstant:
                G = G + values[i, l] * dbs[i]
            per_var.append(_offdiag(G @ P))
        coeffs.append(np.stack(per_var))
        cols.append(idx)
    blocks = [lmi.AffineBlock(ies_block(P, J), coeffs[label[1]],
                              var_indices=cols[label[1]], label=str(label))
              for J, label in zip(mats, labels)]
    return lmi.LmiProblem(dim=N * n, blocks=blocks,
                          initial_z=np.zeros(N * n))


# the deterministic path counters of lmi.solve that the report carries
_SOLVER_RECORD = ("newton_steps", "barrier_stages", "backtracks", "final_mu")


def _finish_gain(model, P, kernel, X, gram, g, mats, labels, sol, mode,
                 eps_p):
    """Build the law from its stacked gradients g at the design points:
    weights w = K0^{-1} g from ``gram`` = (K0, L), one residual guard
    ||K0 w - g|| <= 1e-6 (1 + ||g||), zero at the model's equilibrium.
    Then close the loop at each constraint's own point (a vertex's cell
    center) and recompute every certificate."""
    K0, L = gram
    w = cho_solve((L, True), g)
    resid = float(np.linalg.norm(K0 @ w - g))
    bound = 1e-6 * (1.0 + float(np.linalg.norm(g)))
    if not resid <= bound:
        raise FactorizationError(
            f"weight solve residual {resid:.3e} exceeds {bound:.3e}: the "
            "gradient Gram matrix K0 of the design points is too badly "
            "conditioned; use fewer or better-separated design points")
    controller = DerivativeController(kernel, X, w)
    if model.equilibrium is not None:
        controller = controller.with_offset_at(model.equilibrium)
    controller.metric = P
    owners = np.array([label[1] for label in labels])
    hull = labels[0][0] != "point"
    A = closed_loop_jacobians(model, controller, X[owners], mats)
    if hull:
        A = np.concatenate([A, closed_loop_jacobians(model, controller, X)])
    margins = np.linalg.eigvalsh(ies_block(P, A))[:, 0]
    family = margins[:len(labels)]
    vertex_margins = ([list(family[owners == i]) for i in range(len(X))]
                      if hull else None)
    return SynthesisReport(
        mode=mode, P=P, eps_p=eps_p, eps=float(family.min()),
        controller=controller, solver_margin=float(sol.margin), points=X,
        # the design points' blocks end the stack on either route
        point_margins=margins[-len(X):], vertex_margins=vertex_margins,
        status=sol.status,
        diagnostics={k: sol.info[k] for k in _SOLVER_RECORD})


def solve_gain(model, P, kernel, points, hulls=None, eps_p=None,
               rho=DEFAULT_RHO):
    """Choose the law's gradients g at the design points so every
    closed-loop block is PSD with maximal margin; the law's weights are
    then K0^{-1} g.

    With a state-dependent input vector the law's value multiplies the
    input Jacobian and its gradient the input vector, both linearly in g.
    The equilibrium offset then shifts the value term inside the blocks;
    the report's margins are recomputed from the shifted law, so any
    degradation is visible there.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    P = np.asarray(P, dtype=float)
    mats, labels = _metric_constraint_mats(model, X, hulls)
    gram = _gram_factor(kernel, X)
    sol = _solve(_gain_problem(model, P, kernel, X, gram[1], mats, labels),
                 rho, "gain")
    if hulls is not None:
        mode = "polytopic"
    elif model.constant_input:
        mode = "two-step"
    else:
        mode = "two-step-nonconstant-b"
    report = _finish_gain(model, P, kernel, X, gram, sol.z, mats, labels, sol,
                          mode, eps_p)
    r = None if hulls is None else hulls.subdivisions
    if r is not None and r > 1:
        # reported (not enforced): the largest jump of g = sol.z between
        # cells sharing a face, the smoothness proxy of refinement
        n = X.shape[1]
        cells = sol.z.reshape((r,) * n + (n,))
        report.diagnostics["max_neighbor_target_gap"] = float(max(
            np.linalg.norm(np.diff(cells, axis=a), axis=-1).max()
            for a in range(n)))
    return report


# ---------------------------------------------------------------------------
# joint route


def solve_joint(model, kernel, points, rho=DEFAULT_RHO):
    """Single family over (P, scaled gradients).

    The scaled gradients P g_i multiply the input vector directly, so no
    coupling with P appears; afterwards the gradients are recovered by
    unscaling with P^{-1} and the law is built exactly as in the two-step
    route.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = X.shape
    if not model.constant_input:
        raise DataError("the joint route needs a constant input vector")
    gram = _gram_factor(kernel, X)  # raises before the solve if K0 is singular

    basis = sym_basis(n)
    mP = len(basis)
    # P's entry E enters block i as ies_block(E, J_i), scaled gradient
    # entry a as the off-diagonal pair of b e_a^T
    eye = np.eye(n)
    gain = [_offdiag(np.outer(model.b, eye[a])) for a in range(n)]
    mats, labels = _metric_constraint_mats(model, X, None)
    blocks = [lmi.AffineBlock(
        np.zeros((2 * n, 2 * n)),
        np.stack([ies_block(E, J) for E in basis] + gain),
        var_indices=np.r_[np.arange(mP), mP + label[1] * n + np.arange(n)],
        label=str(label)) for J, label in zip(mats, labels)]
    init = np.zeros(mP + N * n)
    init[:mP] = vech(0.5 * (1.0 + rho) * np.eye(n))
    problem = lmi.LmiProblem(dim=mP + N * n,
                             blocks=blocks + _metric_bounds(n, rho),
                             initial_z=init)
    sol = _solve(problem, rho, "joint")
    P = unvech(sol.z[:mP], n)
    g = (sol.z[mP:].reshape(N, n) @ np.linalg.inv(P)).reshape(-1)
    return _finish_gain(model, P, kernel, X, gram, g, mats, labels, sol,
                        "joint", None)


# ---------------------------------------------------------------------------
# orchestration


def run_synthesis(model, kernel, points, mode="two-step", rho=DEFAULT_RHO,
                  hulls=None):
    """End-to-end synthesis in the requested mode; returns a report."""
    if mode == "joint":
        return solve_joint(model, kernel, points, rho=rho)
    if mode == "polytopic" and hulls is None:
        raise DataError("polytopic mode requires hulls")
    if mode not in ("two-step", "polytopic"):
        raise DataError(f"unknown synthesis mode '{mode}'")
    P, eps_p = solve_metric(model, points, hulls=hulls, rho=rho)
    return solve_gain(model, P, kernel, points, hulls=hulls, eps_p=eps_p,
                      rho=rho)
