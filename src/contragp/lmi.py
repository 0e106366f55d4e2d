"""Margin maximization for finite families of affine symmetric-matrix
constraints.

A problem asks for the decision vector z that maximizes eps subject to

    C_j + sum_k z_k A_{j,k}  >=  eps * I_{s_j}   for every block j.

This is the phase-I problem  min t  s.t.  C_j + sum_k z_k A_{j,k} + t I >= 0
(Boyd & Vandenberghe, Convex Optimization, sec. 11.4), solved along one
central path: Newton centering of  t/mu + Phi(z, t)  for a decreasing
sequence of mu, where Phi is the log-det barrier over the block-diagonal
PSD cone.  A centered iterate is within nu * mu of the optimal t (nu is the
barrier degree), which gives the stopping rule.  A centering ends at a
negligible Newton decrement, or at the roundoff floor: the objective is
self-concordant, so once the decrement is at most (1/2 - ARMIJO)**2 a full
Newton step passes the Armijo test in exact arithmetic (sec. 9.6.4), and a
full step that fails it means roundoff in the barrier value hides the
decrease.  Margins reported on
solutions are always recomputed from eigenvalue decompositions of the
assembled blocks, independent of the path.

Blocks may carry coefficient matrices for a subset of the decision entries
(``var_indices``); this keeps large point families cheap when each
constraint touches only a few variables.  Every linear inequality on the
decision vector (bounds on an entry, trace bounds and the like) is a 1 x 1
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import (DataError, DimensionError, NumericalFailureError,
                     UnboundedMarginError)

__all__ = [
    "AffineBlock",
    "LmiProblem",
    "LmiSolution",
    "solve",
    "assemble_block",
    "assemble_margin",
]

# path parameters
MARGIN_CAP = 1e8      # a level t below -MARGIN_CAP raises UnboundedMarginError
MAX_NEWTON = 80       # Newton steps per centering
NEWTON_TOL = 1e-10    # a centering stops at Newton decrement <= 2 NEWTON_TOL
MU_FACTOR = 0.15      # mu shrinks by this factor between centerings
MU_FLOOR = 1e-12      # the path stops at mu <= MU_FLOOR * max(1, |t|)
ARMIJO = 0.25         # sufficient-decrease fraction of the line search
FEAS_TOL = 1e-7       # a margin at or above this counts as feasible


@dataclass
class AffineBlock:
    """One affine symmetric constraint ``const + sum_k z_k coeffs[k] >= eps I``.

    ``var_indices`` maps ``coeffs`` onto decision entries; ``None`` means the
    coefficients are aligned with the full decision vector.  An entry listed
    more than once multiplies the sum of its coefficients.
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
    initial_z: np.ndarray | None = None  # path start; zeros when None

    def validate(self):
        if self.dim < 0:
            raise DataError("dim must be nonnegative")
        if len(self.blocks) == 0:
            raise DataError("problem needs at least one block")
        # blocks of one shape are checked together; the error names the
        # first offending block and its first failing check
        fails = {}
        groups = {}
        for j, blk in enumerate(self.blocks):
            s = blk.const.shape
            if len(s) != 2 or s[0] != s[1]:
                fails[j] = DimensionError(f"blocks[{j}].const", "square", s)
                continue
            vi = None if blk.var_indices is None else blk.var_indices.shape
            groups.setdefault((s, blk.coeffs.shape, vi), []).append(j)
        for (s, cs, vi), js in groups.items():
            C = np.stack([self.blocks[j].const for j in js])
            A = np.stack([self.blocks[j].coeffs for j in js])
            CT = np.swapaxes(C, 1, 2)
            with np.errstate(invalid="ignore"):
                finite = (np.isfinite(C).all(axis=(1, 2))
                          & np.isfinite(A).reshape(len(js), -1).all(axis=1))
                # np.allclose(C, C.T, atol=...) block by block
                atol = 1e-10 * (1 + np.abs(C).max(axis=(1, 2)))
                sym = np.all(np.abs(C - CT)
                             <= atol[:, None, None] + 1e-5 * np.abs(CT),
                             axis=(1, 2))
            if vi is None:
                count_ok = cs[0] == self.dim
                in_range = np.ones(len(js), dtype=bool)
            else:
                V = np.stack([self.blocks[j].var_indices for j in js])
                count_ok = vi[0] == cs[0]
                in_range = ~np.any((V < 0) | (V >= self.dim), axis=1)
            bad = np.column_stack(np.broadcast_arrays(
                ~finite, ~sym, cs[1:] != s, not count_ok, ~in_range))
            for row in np.flatnonzero(bad.any(axis=1)):
                fails[js[row]] = self._block_error(js[row],
                                                   int(np.argmax(bad[row])))
        if fails:
            raise fails[min(fails)]

    def _block_error(self, j, check):
        """The error of check ``check`` (in the order of :meth:`validate`)
        on ``blocks[j]``."""
        blk = self.blocks[j]
        s, k = blk.const.shape, blk.coeffs.shape[0]
        return [
            DataError(f"blocks[{j}] contains non-finite entries"),
            DataError(f"blocks[{j}].const is not symmetric"),
            DimensionError(f"blocks[{j}].coeffs", f"(*, {s[0]}, {s[0]})",
                           blk.coeffs.shape),
            DimensionError(f"blocks[{j}].coeffs", f"{self.dim} matrices", k)
            if blk.var_indices is None else
            DimensionError(f"blocks[{j}].var_indices", k,
                           blk.var_indices.shape[0]),
            DataError(f"blocks[{j}].var_indices out of range")][check]

@dataclass
class LmiSolution:
    z: np.ndarray
    margin: float
    status: str  # "optimal" | "infeasible" | "numerical-failure"
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# assembly / certification


def assemble_block(block: AffineBlock, z):
    """C + sum_k z_k A_k for one block."""
    z = np.asarray(z, dtype=float).reshape(-1)
    zk = z if block.var_indices is None else z[block.var_indices]
    if zk.shape[0] == 0:
        return block.const.copy()
    return block.const + np.tensordot(zk, block.coeffs, axes=(0, 0))


def _block_groups(problem: LmiProblem):
    """The blocks grouped by (size, active-variable count), in order of
    first appearance: per group the block indices and the stacked
    constants, coefficients and active indices (all ``dim`` entries for a
    block without ``var_indices``)."""
    grouped = {}
    for j, blk in enumerate(problem.blocks):
        grouped.setdefault((blk.size, blk.coeffs.shape[0]), []).append(j)
    full = np.arange(problem.dim)
    groups = []
    for js in grouped.values():
        blks = [problem.blocks[j] for j in js]
        groups.append((np.array(js), np.stack([b.const for b in blks]),
                       np.stack([b.coeffs for b in blks]),
                       np.stack([full if b.var_indices is None
                                 else b.var_indices for b in blks])))
    return groups


def block_margins(problem: LmiProblem, z):
    """Per-block smallest eigenvalues at z: one stacked assembly (a gather
    of z and one batched matmul) and one stacked symmetric eigensolve per
    block group."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != problem.dim:
        raise DimensionError("z", problem.dim, z.shape[0])
    out = np.empty(len(problem.blocks))
    for js, C, A, idx in _block_groups(problem):
        J, K, s, _ = A.shape
        M = C + (z[idx][:, None, :] @ A.reshape(J, K, s * s)).reshape(J, s, s)
        out[js] = np.linalg.eigvalsh(0.5 * (M + M.mT))[:, 0]
    return out


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

    Per block group of :func:`_block_groups` every barrier evaluation runs
    through stacked LAPACK calls: one batched Cholesky and one batched
    inverse factor per group, and one scatter of the group's Hessian
    contributions through precomputed flat indices of H.  Each group
    carries an identity slot for t.
    """

    def __init__(self, problem: LmiProblem):
        m = problem.dim
        self.m = m
        self.groups = []
        # barrier degree: the sum of the block sizes
        self.nu = 0
        for _, C, A, idx in _block_groups(problem):
            n_items, _, s, _ = A.shape
            eye_slot = np.broadcast_to(np.eye(s), (n_items, 1, s, s))
            idx = np.concatenate([idx, np.full((n_items, 1), m)], axis=1)
            self.groups.append({
                "const": 0.5 * (C + C.mT),
                "coeffs": np.concatenate([A, eye_slot], axis=1),
                "idx": idx,
                # entry (idx[j, k], idx[j, l]) of the flattened H; repeated
                # indices accumulate under np.add.at
                "flat": (idx[:, :, None] * (m + 1) + idx[:, None, :]).ravel(),
            })
            self.nu += s * n_items

    @staticmethod
    def assemble(group, w):
        return group["const"] + np.einsum("jk,jkab->jab", w[group["idx"]],
                                          group["coeffs"])


def _barrier(ws: _Workspace, w, mu, derivs=True):
    """Value of  t/mu + Phi  at w = (z, t), with its gradient and Hessian
    when ``derivs``.

    Phi is the log-det barrier of the blocks.  Returns None when w is not
    strictly feasible.
    """
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
        # V_k = L^{-1} A_k L^{-T}; grad gets -tr(V_k), Hessian <V_k, V_l>_F
        Li = np.linalg.inv(L)[:, None]
        V = Li @ A @ Li.mT
        np.add.at(g, grp["idx"], -np.einsum("jkaa->jk", V))
        Vflat = V.reshape(J, K, s * s)
        np.add.at(H.reshape(-1), grp["flat"],
                  (Vflat @ Vflat.mT).reshape(-1))
    val = phi + w[m] / mu
    if not derivs:
        return val
    g[m] += 1.0 / mu
    return val, g, H


def _newton_solve(H, g):
    # scipy's cholesky and solve_triangular minus their input checks: reg
    # grows while a factor fails or H or y (so g) is not finite
    reg = 1e-13 * (1.0 + float(np.abs(np.diag(H)).max(initial=0.0)))
    eye = np.eye(H.shape[0])
    finite = np.isfinite(H).all()
    for _ in range(6):
        if finite:
            L, info = dpotrf(H + reg * eye, lower=1, clean=1)
            if info == 0:
                y, info = dtrtrs(L, -g, lower=1)
                if info == 0 and np.isfinite(y).all():
                    return dtrtrs(L, y, lower=1, trans=1)[0]
        reg *= 100.0
    return np.linalg.lstsq(H + reg * eye, -g, rcond=None)[0]


def _minimize_barrier(ws, w, mu, info):
    """Newton descent of  t/mu + Phi  from w; returns (w, converged).

    Raises UnboundedMarginError once t falls below -``MARGIN_CAP``.
    """
    trace = info["trace"]
    cur = _barrier(ws, w, mu)
    if cur is None:
        raise NumericalFailureError("barrier start point not strictly feasible",
                                    trace)
    f, g, H = cur
    alpha0 = 1.0  # adaptive start; boundary-hugging iterates reuse short steps
    for it in range(MAX_NEWTON):
        if w[-1] < -MARGIN_CAP:
            raise UnboundedMarginError(
                "margin maximization appears unbounded; add normalization "
                "blocks that bound the decision vector")
        step = _newton_solve(H, g)
        decrement = float(-g @ step)
        if not np.isfinite(decrement):
            raise NumericalFailureError("non-finite Newton decrement", trace)
        if decrement <= 2.0 * NEWTON_TOL:
            return w, True
        info["newton_steps"] += 1
        # t/mu + Phi is self-concordant, so at this decrement a full step
        # passes the Armijo test in exact arithmetic (Boyd & Vandenberghe,
        # sec. 9.6.4); if it fails, roundoff in f hides the decrease and
        # the centering is as good as it gets
        full = decrement <= (0.5 - ARMIJO) ** 2
        alpha = 1.0 if full else alpha0
        for _ in range(60):
            w_try = w + alpha * step
            val = _barrier(ws, w_try, mu, derivs=False)
            if val is not None and val <= f - ARMIJO * alpha * decrement:
                break
            if full:
                info["floor_stops"] += 1
                trace.append(f"centering at roundoff floor (mu={mu:.2e}, "
                             f"decrement={decrement:.2e})")
                return w, True
            alpha *= 0.5
            info["backtracks"] += 1
        else:
            trace.append(f"line search stalled (mu={mu:.2e}, it={it})")
            return w, False
        w = w_try
        f, g, H = _barrier(ws, w, mu)
        alpha0 = min(1.0, 4.0 * alpha)
    trace.append(f"newton budget exhausted (mu={mu:.2e})")
    return w, False


def solve(problem: LmiProblem, width=1e-5) -> LmiSolution:
    """Maximize the smallest block margin of an LMI family.

    One central path of  min t  s.t.  blocks(z) + t I >= 0, run until a
    centered iterate has barrier gap nu * mu <= ``width``, so the returned
    margin is within ``width`` of the supremum.  The status is ``optimal``
    when the margin at the returned z is at least ``FEAS_TOL`` and
    ``infeasible`` otherwise; ``info`` then carries that margin as
    ``best_margin`` and an upper bound on the supremum as
    ``best_margin_upper``.  ``info`` also records the path:
    ``newton_steps``, ``barrier_stages`` (centerings, one per mu),
    ``backtracks`` (line-search halvings), ``floor_stops`` and
    ``final_mu``.  A centering counts as converged at Newton decrement
    ``<= 2 NEWTON_TOL``, or when the decrement is at most
    ``(0.5 - ARMIJO)**2`` and the full Newton step, which passes the Armijo
    test there in exact arithmetic, fails it: that centering is at the
    roundoff floor of the barrier value, adds one to ``floor_stops`` and a
    ``centering at roundoff floor`` line to ``trace``.  The reported
    margin is always recomputed from the assembled blocks at the returned z.
    """
    problem.validate()
    ws = _Workspace(problem)
    info = {"newton_steps": 0, "barrier_stages": 0, "backtracks": 0,
            "floor_stops": 0, "trace": []}
    z0 = (np.zeros(problem.dim) if problem.initial_z is None
          else np.array(problem.initial_z, dtype=float))
    m0 = assemble_margin(problem, z0)
    w = np.append(z0, -m0 + 0.05 * abs(m0) + 1e-8)
    # a centered iterate lies within nu * mu of the optimal level: start
    # where that gap is the scale of the starting margin, so the first
    # stage does not push t far from it
    mu = max(1.0, abs(m0)) / ws.nu
    try:
        while True:
            info["barrier_stages"] += 1
            info["final_mu"] = mu
            w, converged = _minimize_barrier(ws, w, mu, info)
            if ((converged and ws.nu * mu <= width)
                    or mu <= MU_FLOOR * max(1.0, abs(w[-1]))):
                break
            mu *= MU_FACTOR
    except NumericalFailureError as exc:
        info["message"] = str(exc)
        info["trace"] = exc.trace or info["trace"]
        return LmiSolution(z=z0, margin=-np.inf, status="numerical-failure",
                           info=info)
    z = w[:-1]
    margin = assemble_margin(problem, z)
    if margin >= FEAS_TOL:
        status = "optimal"
    else:
        status = "infeasible"
        info["best_margin"] = margin
        info["best_margin_upper"] = margin + ws.nu * mu
    return LmiSolution(z=z, margin=margin, status=status, info=info)

