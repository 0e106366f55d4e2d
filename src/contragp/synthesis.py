"""Controller synthesis pipelines.

Three routes produce a constant metric P and a derivative-GP feedback law
for the control-affine model x+ = f(x) + b u with a constant input vector
b:

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lmi
from .deriv_gp import DerivativeController, build_gram_K0
from .errors import (DataError, FactorizationError, InfeasibleError,
                     NumericalFailureError, VertexBudgetError)
from .systems import Box

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
    Q, _ = np.linalg.qr(B, mode="complete")
    rows = Q[:, m:].T.copy()
    for r in rows:
        j = int(np.argmax(np.abs(r)))
        if r[j] < 0:
            r *= -1.0
    return rows


def sym_basis(n):
    """Basis of symmetric n x n matrices matching the vech ordering
    [(0,0), (1,0), (1,1), (2,0), ...], stacked."""
    rows, cols = np.tril_indices(n)
    basis = np.zeros((len(rows), n, n))
    k = np.arange(len(rows))
    basis[k, rows, cols] = basis[k, cols, rows] = 1.0
    return basis


def unvech(z, n):
    P = np.zeros((n, n))
    P[np.tril_indices(n)] = P.T[np.tril_indices(n)] = z
    return P


def vech(P):
    return P[np.tril_indices(P.shape[0])]


def ies_block(P, A):
    """The 2n x 2n closed-loop certificate block [[P, (AP)^T], [AP, P]] of
    A, or the stack of blocks of stacks that broadcast, as (B, n, n) A."""
    n = P.shape[-1]
    AP = A @ P
    M = np.zeros(AP.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = P
    M[..., :n, n:] = np.swapaxes(AP, -1, -2)
    M[..., n:, :n] = AP
    M[..., n:, n:] = P
    return M


def _offdiag(G):
    """The symmetric block [[0, G^T], [G, 0]] of each square G of a stack."""
    n = G.shape[-1]
    M = np.zeros(G.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, n:] = np.swapaxes(G, -1, -2)
    M[..., n:, :n] = G
    return M


def closed_loop_jacobians(model, controller, X, jacs=None, rows=slice(None)):
    """Closed-loop Jacobians J(x) + b grad u(x)^T at the rows ``rows`` of
    X; (B, n, n).  ``jacs``, one per row taken, replaces J(x): a hull vertex
    at its cell center.  The law's gradient is evaluated once per row of
    X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if jacs is None:
        jacs = model.drift_jacobian(X)
    grads = controller.control_grad_batch(X)[rows]
    return np.asarray(jacs, dtype=float) + model.b[:, None] * grads[:, None, :]


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

    def vertices(self):
        """All interval-endpoint matrices, cell after cell; (V, n, n).  A
        pinned entry sits at its midpoint; a cell's k-th free entry
        (row-major) is digit k, the first the slowest, of the vertex's index
        there, 0 for lo and 1 for hi: ``itertools.product`` order."""
        counts = 2 ** np.sum(~self.pinned, axis=(1, 2))
        owners = np.repeat(np.arange(self.n_cells), counts)
        local = np.arange(len(owners)) - (np.cumsum(counts) - counts)[owners]
        free = ~self.pinned[owners]
        rank = np.cumsum(free.reshape(len(owners), -1), axis=1)
        digit = free.sum(axis=(1, 2))[:, None] - rank
        pick = free & ((local[:, None] >> digit) & 1 == 1).reshape(free.shape)
        return np.where(free, np.where(pick, self.hi[owners], self.lo[owners]),
                        (0.5 * (self.lo + self.hi))[owners])

    @cached_property
    def family(self):
        """:meth:`vertices`, each one's cell and its label ("cell-vertex",
        cell, index there): the polytopic route's constraint family,
        enumerated once per hull for its metric and gain steps."""
        counts = (2 ** np.sum(~self.pinned, axis=(1, 2))).tolist()
        return (self.vertices(), np.repeat(np.arange(self.n_cells), counts),
                [("cell-vertex", i, l)
                 for i, c in enumerate(counts) for l in range(c)])

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
    """Jacobians at every cell's sampling subgrid, its
    ``grid_points(cell, per_axis)``, from one call on all the cells'
    samples; shape (cells, samples, n, n)."""
    if per_axis < 1:
        raise DataError("grid counts must be positive")
    lo, hi = np.array([(c.lo, c.hi) for c in cells]).transpose(1, 0, 2)
    n = lo.shape[1]
    grid = np.indices((per_axis,) * n).reshape(n, -1).T
    pts = np.linspace(lo, hi, per_axis, axis=-1)[:, np.arange(n), grid]
    J = np.asarray(jac_fn(pts.reshape(-1, n)), dtype=float)
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
    edges = np.linspace(domain.lo_arr, domain.hi_arr, r + 1, axis=1)
    combos = np.indices((r,) * n).reshape(n, -1).T  # itertools.product order
    lo, hi = edges[np.arange(n), combos], edges[np.arange(n), combos + 1]
    cells = [Box.make(a, b) for a, b in zip(lo, hi)]
    centers = 0.5 * (lo + hi)
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
    """Jacobian matrices entering every family, stacked: one per point, or
    the hulls' :attr:`~VertexHull.family` when hulls are given; with the
    index of each one's point and labels that identify the source."""
    if hulls is not None:
        if (hulls.centers.shape != points.shape
                or not np.allclose(hulls.centers, points)):
            raise DataError("points must be the hull cell centers")
        return hulls.family
    mats = np.asarray(model.drift_jacobian(points), dtype=float)
    return (mats, np.arange(len(points)),
            [("point", i) for i in range(len(points))])


_P_BOUNDS = ("P-lower", "P-upper")


def _metric_bounds(n, rho):
    """I <= P <= rho I over the vech entries of P, the leading decision
    entries."""
    basis = sym_basis(n)
    idx = np.arange(len(basis))
    return [lmi.AffineBlock(-np.eye(n), basis, var_indices=idx,
                            label=_P_BOUNDS[0]),
            lmi.AffineBlock(rho * np.eye(n), -basis, var_indices=idx,
                            label=_P_BOUNDS[1])]


# the deterministic path counters of lmi.solve that the report carries: all
# of the gain (or joint) solve's, and the metric solve's step counts
_SOLVER_RECORD = ("newton_steps", "barrier_stages", "backtracks", "final_mu",
                  "final_gap")
_METRIC_RECORD = ("newton_steps", "backtracks", "barrier_stages")


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
        margins = sol.margins
        family = [j for j, blk in enumerate(problem.blocks)
                  if blk.label not in _P_BOUNDS]
        worst = problem.blocks[family[int(np.argmin(margins[family]))]].label
        best = sol.info.get("best_margin")
        raise InfeasibleError(
            f"{what} family infeasible: best margin {best:.3e}, "
            f"worst constraint {worst}", best_margin=best, worst_label=worst)
    return sol


def solve_metric(model, points, hulls=None, rho=DEFAULT_RHO, record=None):
    """Select a constant metric P with I <= P <= rho I maximizing the
    annihilated one-step decrease margin over the constraint family.

    Returns ``(P, eps_p)``.  For scalar fully-actuated systems the family is
    empty and P = 1 is returned with ``eps_p = None``.  A dict ``record``
    receives the solve's path counters as ``metric_<counter>``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise DataError("points must be non-empty")
    n = model.n
    Bperp = left_annihilator(model.b)
    if Bperp.shape[0] == 0:
        return np.eye(n), None
    basis = sym_basis(n)
    q = Bperp.shape[0]
    mats, _, labels = _metric_constraint_mats(model, points, hulls)
    J = mats[:, None]
    coeffs = Bperp @ (basis - J @ basis @ J.mT) @ Bperp.T
    blocks = [lmi.AffineBlock(np.zeros((q, q)), A, label=str(label))
              for A, label in zip(coeffs, labels)]
    problem = lmi.LmiProblem(dim=len(basis),
                             blocks=blocks + _metric_bounds(n, rho),
                             initial_z=vech(0.5 * (1.0 + rho) * np.eye(n)))
    sol = _solve(problem, rho, "metric")
    if record is not None:
        record.update({f"metric_{k}": sol.info[k] for k in _METRIC_RECORD})
    eps_p = float(sol.margins[:len(labels)].min())
    return unvech(sol.z, n), eps_p


# ---------------------------------------------------------------------------
# step 2: gain selection over the law's design-point gradients


def _design_gram(kernel, X):
    """The gradient Gram matrix K0 of the design points, checked to have a
    Cholesky factor with no jitter: the gain variables are the law's
    gradients g there, and its weights are K0^{-1} g."""
    K0 = build_gram_K0(kernel, X)
    # numpy's factor carries a NaN or an inf through instead of failing
    if np.isfinite(K0).all():
        try:
            np.linalg.cholesky(K0)
            return K0
        except np.linalg.LinAlgError:
            pass
    raise FactorizationError(
        "the gradient Gram matrix K0 of the design points must factor "
        "without jitter; use fewer or better-separated design points")


def _gain_problem(model, P, X, family):
    """Blocks [[P, (A P)^T], [A P, P]] with A = J + b g^T affine in the
    law's gradients g at the design points, one per design Jacobian or hull
    vertex of ``family``.  Each block touches only the n gradient entries
    of its own point."""
    N, n = X.shape
    mats, owners, labels = family
    # every point's entry a enters as b e_a^T: one shared stack
    G = model.b[:, None] * np.eye(n)[:, None, :]
    coeffs = np.broadcast_to(_offdiag(G @ P), (N, n, 2 * n, 2 * n))
    cols = np.arange(N * n).reshape(N, n)
    blocks = [lmi.AffineBlock(C, coeffs[i], var_indices=cols[i],
                              label=str(label))
              for C, i, label in zip(ies_block(P, mats), owners, labels)]
    return lmi.LmiProblem(dim=N * n, blocks=blocks,
                          initial_z=np.zeros(N * n))


def _finish_gain(model, P, kernel, X, K0, g, family, sol, mode, eps_p):
    """Build the law from its stacked gradients g at the design points:
    weights w = K0^{-1} g, one residual guard
    ||K0 w - g|| <= 1e-6 (1 + ||g||), zero at the model's equilibrium.
    Then close the loop at each constraint's own point (a vertex's cell
    center) and recompute every certificate."""
    w = np.linalg.solve(K0, g)
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
    mats, owners, labels = family
    hull = labels[0][0] != "point"
    jacs = np.concatenate([mats, model.drift_jacobian(X)]) if hull else mats
    rows = np.r_[owners, np.arange(len(X))] if hull else owners
    A = closed_loop_jacobians(model, controller, X, jacs, rows)
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

    The blocks are affine in g through A = J + b g^T, so the equilibrium
    offset, a constant shift of the law's value, leaves them unchanged.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    P = np.asarray(P, dtype=float)
    family = _metric_constraint_mats(model, X, hulls)
    K0 = _design_gram(kernel, X)
    sol = _solve(_gain_problem(model, P, X, family), rho, "gain")
    mode = "two-step" if hulls is None else "polytopic"
    report = _finish_gain(model, P, kernel, X, K0, sol.z, family, sol,
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
    K0 = _design_gram(kernel, X)  # raises before the solve if K0 is singular

    basis = sym_basis(n)
    mP = len(basis)
    # P's entry E enters block i as ies_block(E, J_i), scaled gradient
    # entry a as the off-diagonal pair of b e_a^T
    family = _metric_constraint_mats(model, X, None)
    mats, _, labels = family
    gain = _offdiag(model.b[:, None] * np.eye(n)[:, None, :])
    coeffs = np.concatenate([ies_block(basis, mats[:, None]),
                             np.broadcast_to(gain, (N,) + gain.shape)], axis=1)
    cols = np.concatenate([np.broadcast_to(np.arange(mP), (N, mP)),
                           mP + np.arange(N * n).reshape(N, n)], axis=1)
    blocks = [lmi.AffineBlock(np.zeros((2 * n, 2 * n)), A, var_indices=idx,
                              label=str(label))
              for A, idx, label in zip(coeffs, cols, labels)]
    init = np.zeros(mP + N * n)
    init[:mP] = vech(0.5 * (1.0 + rho) * np.eye(n))
    problem = lmi.LmiProblem(dim=mP + N * n,
                             blocks=blocks + _metric_bounds(n, rho),
                             initial_z=init)
    sol = _solve(problem, rho, "joint")
    P = unvech(sol.z[:mP], n)
    g = (sol.z[mP:].reshape(N, n) @ np.linalg.inv(P)).reshape(-1)
    return _finish_gain(model, P, kernel, X, K0, g, family, sol, "joint",
                        None)


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
    metric_record = {}
    P, eps_p = solve_metric(model, points, hulls=hulls, rho=rho,
                            record=metric_record)
    report = solve_gain(model, P, kernel, points, hulls=hulls, eps_p=eps_p,
                        rho=rho)
    report.diagnostics.update(metric_record)
    return report
