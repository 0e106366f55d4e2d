"""Feasibility and margin maximization for finite families of affine
symmetric-matrix constraints.

A problem asks for a decision vector z with

    C_j + sum_k z_k A_{j,k}  >=  eps * I_{s_j}   for every block j,
    l <= z <= u                                  (optional box bounds),

where eps is either required to clear a small tolerance (feasibility
objective) or maximized (margin objective).  Maximizing the margin is the
phase-I problem  min t  s.t.  C_j + sum_k z_k A_{j,k} + t I >= 0  (Boyd &
Vandenberghe, Convex Optimization, sec. 11.4), so both objectives follow one
central path: Newton centering of  t/mu + Phi(z, t)  for a decreasing
sequence of mu, where Phi is the log-det barrier over the block-diagonal
PSD cone plus the box barriers.  A centered iterate is within nu * mu of
the optimal t (nu is the barrier degree), which gives the stopping rule.
Margins reported on solutions are always recomputed from eigenvalue
decompositions of the assembled blocks, independent of the path.

Blocks may carry coefficient matrices for a subset of the decision entries
(``var_indices``); this keeps large point families cheap when each
constraint touches only a few variables.  Linear inequalities on the
decision vector beyond the box (trace bounds and the like) are expressed as
1 x 1 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .errors import (DataError, DimensionError, NumericalFailureError,
                     UnboundedMarginError)

__all__ = [
    "AffineBlock",
    "LmiProblem",
    "LmiSolution",
    "SolverConfig",
    "solve",
    "assemble_block",
    "assemble_margin",
    "dump_problem",
]

MAXIMIZE_MARGIN = "maximize-margin"
FEASIBILITY = "feasibility"


@dataclass
class AffineBlock:
    """One affine symmetric constraint ``const + sum_k z_k coeffs[k] >= eps I``.

    ``var_indices`` maps ``coeffs`` onto decision entries; ``None`` means the
    coefficients are aligned with the full decision vector.
    """

    const: np.ndarray
    coeffs: np.ndarray
    var_indices: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        self.const = np.asarray(self.const, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.size == 0:
            self.coeffs = self.coeffs.reshape(0, *self.const.shape)
        if self.var_indices is not None:
            self.var_indices = np.asarray(self.var_indices, dtype=int)

    @property
    def size(self):
        return self.const.shape[0]


@dataclass
class LmiProblem:
    dim: int
    blocks: list
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    objective: str = MAXIMIZE_MARGIN
    initial_z: np.ndarray | None = None

    def validate(self):
        if self.dim < 0:
            raise DataError("dim must be nonnegative")
        if len(self.blocks) == 0:
            raise DataError("problem needs at least one block")
        if self.objective not in (MAXIMIZE_MARGIN, FEASIBILITY):
            raise DataError(f"unknown objective '{self.objective}'")
        for j, blk in enumerate(self.blocks):
            s = blk.const.shape
            if len(s) != 2 or s[0] != s[1]:
                raise DimensionError(f"blocks[{j}].const", "square", s)
            if not (np.all(np.isfinite(blk.const))
                    and np.all(np.isfinite(blk.coeffs))):
                raise DataError(f"blocks[{j}] contains non-finite entries")
            if not np.allclose(blk.const, blk.const.T, atol=1e-10 * (1 + np.abs(blk.const).max())):
                raise DataError(f"blocks[{j}].const is not symmetric")
            k = blk.coeffs.shape[0]
            if blk.coeffs.shape[1:] != s:
                raise DimensionError(f"blocks[{j}].coeffs", f"(*, {s[0]}, {s[0]})",
                                     blk.coeffs.shape)
            if blk.var_indices is None:
                if k != self.dim:
                    raise DimensionError(f"blocks[{j}].coeffs", f"{self.dim} matrices", k)
            else:
                if blk.var_indices.shape[0] != k:
                    raise DimensionError(f"blocks[{j}].var_indices", k,
                                         blk.var_indices.shape[0])
                if k and (blk.var_indices.min() < 0 or blk.var_indices.max() >= self.dim):
                    raise DataError(f"blocks[{j}].var_indices out of range")
        for name, arr in (("lower", self.lower), ("upper", self.upper)):
            if arr is not None and np.asarray(arr).shape[0] != self.dim:
                raise DimensionError(name, self.dim, np.asarray(arr).shape[0])
        if self.lower is not None and self.upper is not None:
            lo = np.asarray(self.lower, dtype=float)
            hi = np.asarray(self.upper, dtype=float)
            both = np.isfinite(lo) & np.isfinite(hi)
            if np.any(lo[both] >= hi[both]):
                raise DataError("lower bounds must be strictly below upper bounds")


@dataclass
class LmiSolution:
    z: np.ndarray
    margin: float
    status: str  # "optimal" | "feasible" | "infeasible" | "numerical-failure"
    info: dict = field(default_factory=dict)


@dataclass
class SolverConfig:
    feas_tol: float = 1e-7        # margin at/above this counts as feasible
    width: float = 1e-5           # reported margin is this close to the supremum
    margin_cap: float = 1e8       # a level t below -margin_cap raises UnboundedMarginError
    max_newton: int = 80
    newton_tol: float = 1e-10
    mu_factor: float = 0.15
    mu_floor: float = 1e-12
    armijo: float = 0.25


# ---------------------------------------------------------------------------
# assembly / certification


def assemble_block(block: AffineBlock, z):
    """C + sum_k z_k A_k for one block."""
    z = np.asarray(z, dtype=float).reshape(-1)
    zk = z if block.var_indices is None else z[block.var_indices]
    if zk.shape[0] == 0:
        return block.const.copy()
    return block.const + np.tensordot(zk, block.coeffs, axes=(0, 0))


def block_margins(problem: LmiProblem, z):
    """Per-block smallest eigenvalues at z."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != problem.dim:
        raise DimensionError("z", problem.dim, z.shape[0])
    out = []
    for blk in problem.blocks:
        M = assemble_block(blk, z)
        out.append(float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]))
    return np.array(out)


def assemble_margin(problem: LmiProblem, z):
    """Smallest eigenvalue over all assembled blocks at z.

    This is the a-posteriori certificate every caller relies on; it uses a
    plain symmetric eigensolver and is independent of the solve internals.
    """
    return float(block_margins(problem, z).min())


# ---------------------------------------------------------------------------
# solver internals
#
# The path runs on w = (z, t), the decision vector with the level t appended,
# so block j reads  C_j + sum_k z_k A_{j,k} + t I  and is linear in w.


class _Workspace:
    """Precomputed arrays for fast barrier assembly.

    Blocks are grouped by (size, active-variable count) so every barrier
    evaluation runs through stacked LAPACK calls: one batched Cholesky per
    group plus batched solves for the gradient/Hessian contributions of the
    coefficient matrices.  Each group carries an identity slot for t.
    """

    def __init__(self, problem: LmiProblem):
        m = problem.dim
        self.m = m
        grouped = {}
        for blk in problem.blocks:
            idx = (np.arange(m) if blk.var_indices is None
                   else blk.var_indices.astype(int))
            key = (blk.size, idx.shape[0])
            grouped.setdefault(key, []).append((blk.const, blk.coeffs, idx))
        self.groups = []
        # barrier degree: block sizes plus one per box side
        self.nu = 0
        for (s, _), items in grouped.items():
            n_items = len(items)
            eye_slot = np.broadcast_to(np.eye(s), (n_items, 1, s, s))
            self.groups.append({
                "const": np.stack([0.5 * (it[0] + it[0].T) for it in items]),
                "coeffs": np.concatenate(
                    [np.stack([it[1] for it in items]), eye_slot], axis=1),
                "idx": np.concatenate(
                    [np.stack([it[2] for it in items]),
                     np.full((n_items, 1), m)], axis=1),
            })
            self.nu += s * n_items
        lo = (np.full(m, -np.inf) if problem.lower is None
              else np.asarray(problem.lower, dtype=float).copy())
        hi = (np.full(m, np.inf) if problem.upper is None
              else np.asarray(problem.upper, dtype=float).copy())
        self.lo, self.hi = lo, hi
        self.has_lo = np.isfinite(lo)
        self.has_hi = np.isfinite(hi)
        self.nu += int(self.has_lo.sum() + self.has_hi.sum())

    def default_start(self):
        """Deterministic start: analytic center of the bound box (midpoints),
        zero for unbounded entries, unit offset for one-sided bounds."""
        z = np.zeros(self.m)
        both = self.has_lo & self.has_hi
        z[both] = 0.5 * (self.lo[both] + self.hi[both])
        only_lo = self.has_lo & ~self.has_hi
        z[only_lo] = self.lo[only_lo] + 1.0
        only_hi = self.has_hi & ~self.has_lo
        z[only_hi] = self.hi[only_hi] - 1.0
        return z

    def clip_inside(self, z):
        """z moved strictly inside the box, 1e-3 of the width (or 1e-3 for
        one-sided bounds) away from each bound."""
        both = self.has_lo & self.has_hi
        pad = np.where(both, 1e-3 * (self.hi - self.lo), 1e-3)
        return np.clip(z, self.lo + pad, self.hi - pad)

    @staticmethod
    def assemble(group, w):
        return group["const"] + np.einsum("jk,jkab->jab", w[group["idx"]],
                                          group["coeffs"])


def _box_barrier(ws, z, grad, hess_diag):
    """Box-barrier value; accumulates its gradient and diagonal Hessian.
    Returns None when z is not strictly inside the box."""
    dlo = z - ws.lo
    dhi = ws.hi - z
    if np.any(dlo[ws.has_lo] <= 0.0) or np.any(dhi[ws.has_hi] <= 0.0):
        return None
    phi = -(float(np.sum(np.log(dlo[ws.has_lo])))
            + float(np.sum(np.log(dhi[ws.has_hi]))))
    grad[:ws.m][ws.has_lo] -= 1.0 / dlo[ws.has_lo]
    grad[:ws.m][ws.has_hi] += 1.0 / dhi[ws.has_hi]
    hess_diag[ws.has_lo] += 1.0 / dlo[ws.has_lo] ** 2
    hess_diag[ws.has_hi] += 1.0 / dhi[ws.has_hi] ** 2
    return phi


def _barrier(ws: _Workspace, w, mu, derivs=True):
    """Value of  t/mu + Phi  at w = (z, t), with its gradient and Hessian
    when ``derivs``.

    Phi is the log-det barrier of the blocks plus the box barriers.  Returns
    None when w is not strictly feasible.
    """
    m = ws.m
    g = np.zeros(m + 1)
    H = np.zeros((m + 1, m + 1))
    hess_diag = np.zeros(m)
    phi = _box_barrier(ws, w[:m], g, hess_diag)
    if phi is None:
        return None
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
        A, idx = grp["coeffs"], grp["idx"]
        J, K, s, _ = A.shape
        # V_k = L^{-1} A_k L^{-T}; grad gets -tr(V_k), Hessian <V_k, V_l>_F
        X = np.linalg.solve(L[:, None], A)
        V = np.linalg.solve(L[:, None], X.transpose(0, 1, 3, 2))
        traces = np.einsum("jkaa->jk", V)
        np.add.at(g, idx, -traces)
        Vflat = V.reshape(J, K, s * s)
        Hb = Vflat @ Vflat.transpose(0, 2, 1)
        for jj in range(J):
            ii = idx[jj]
            H[np.ix_(ii, ii)] += Hb[jj]
    val = phi + w[m] / mu
    if not derivs:
        return val
    H[np.arange(m), np.arange(m)] += hess_diag
    g[m] += 1.0 / mu
    return val, g, H


def _newton_solve(H, g):
    reg = 1e-13 * (1.0 + float(np.abs(np.diag(H)).max(initial=0.0)))
    eye = np.eye(H.shape[0])
    for _ in range(6):
        try:
            L = cholesky(H + reg * eye, lower=True)
            step = solve_triangular(
                L.T, solve_triangular(L, -g, lower=True), lower=False)
            return step
        except Exception:
            reg *= 100.0
    return np.linalg.lstsq(H + reg * eye, -g, rcond=None)[0]


def _minimize_barrier(ws, w, mu, cfg, info, stop_t):
    """Newton descent of  t/mu + Phi  from w; returns (w, converged).

    Returns early, as converged, once t <= ``stop_t``; raises
    UnboundedMarginError once t falls below -``margin_cap``.
    """
    trace = info["trace"]
    cur = _barrier(ws, w, mu)
    if cur is None:
        raise NumericalFailureError("barrier start point not strictly feasible",
                                    trace)
    f, g, H = cur
    alpha0 = 1.0  # adaptive start; boundary-hugging iterates reuse short steps
    for it in range(cfg.max_newton):
        if w[-1] <= stop_t:
            return w, True
        if w[-1] < -cfg.margin_cap:
            raise UnboundedMarginError(
                "margin maximization appears unbounded; add normalization "
                "bounds on the decision vector")
        step = _newton_solve(H, g)
        decrement = float(-g @ step)
        if not np.isfinite(decrement):
            raise NumericalFailureError("non-finite Newton decrement", trace)
        if decrement <= 2.0 * cfg.newton_tol:
            return w, True
        info["newton_steps"] += 1
        alpha = alpha0
        for _ in range(60):
            w_try = w + alpha * step
            val = _barrier(ws, w_try, mu, derivs=False)
            if val is not None and val <= f - cfg.armijo * alpha * decrement:
                break
            alpha *= 0.5
        else:
            trace.append(f"line search stalled (mu={mu:.2e}, it={it})")
            return w, False
        w = w_try
        f, g, H = _barrier(ws, w, mu)
        alpha0 = min(1.0, 4.0 * alpha)
    trace.append(f"newton budget exhausted (mu={mu:.2e})")
    return w, False


def solve(problem: LmiProblem, config: SolverConfig | None = None) -> LmiSolution:
    """Solve an LMI family for the requested objective.

    One central path of  min t  s.t.  blocks(z) + t I >= 0  within the box.
    For ``maximize-margin`` the path runs until a centered iterate has
    barrier gap nu * mu <= ``width``, so the returned margin is within
    ``width`` of the supremum; for ``feasibility`` it stops as soon as the
    margin reaches ``feas_tol``.  Either way the status is ``infeasible``
    when the margin at the returned z is below ``feas_tol``; ``info`` then
    carries that margin as ``best_margin`` and an upper bound on the
    supremum as ``best_margin_upper``.  ``info["newton_steps"]`` counts the
    Newton steps taken.  The reported margin is always recomputed from the
    assembled blocks at the returned z.
    """
    cfg = config or SolverConfig()
    problem.validate()
    ws = _Workspace(problem)
    info = {"newton_steps": 0, "trace": []}
    z0 = (ws.clip_inside(np.asarray(problem.initial_z, dtype=float))
          if problem.initial_z is not None else ws.default_start())
    m0 = assemble_margin(problem, z0)
    w = np.append(z0, -m0 + 0.05 * abs(m0) + 1e-8)
    mu = max(1.0, abs(m0))
    stop_t = -cfg.feas_tol if problem.objective == FEASIBILITY else -np.inf
    try:
        while True:
            w, converged = _minimize_barrier(ws, w, mu, cfg, info, stop_t)
            if (w[-1] <= stop_t or (converged and ws.nu * mu <= cfg.width)
                    or mu <= cfg.mu_floor * max(1.0, abs(w[-1]))):
                break
            mu *= cfg.mu_factor
    except NumericalFailureError as exc:
        info["message"] = str(exc)
        info["trace"] = exc.trace or info["trace"]
        return LmiSolution(z=z0, margin=-np.inf, status="numerical-failure",
                           info=info)
    z = w[:-1]
    margin = assemble_margin(problem, z)
    if margin >= cfg.feas_tol:
        status = "feasible" if problem.objective == FEASIBILITY else "optimal"
    else:
        status = "infeasible"
        info["best_margin"] = margin
        info["best_margin_upper"] = margin + ws.nu * mu
    return LmiSolution(z=z, margin=margin, status=status, info=info)


def dump_problem(problem: LmiProblem, path):
    """Write a problem to JSON for external cross-checking."""
    import json

    data = {
        "dim": problem.dim,
        "objective": problem.objective,
        "lower": None if problem.lower is None else list(map(float, problem.lower)),
        "upper": None if problem.upper is None else list(map(float, problem.upper)),
        "blocks": [
            {
                "label": blk.label,
                "const": blk.const.tolist(),
                "coeffs": blk.coeffs.tolist(),
                "var_indices": (None if blk.var_indices is None
                                else blk.var_indices.tolist()),
            }
            for blk in problem.blocks
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
