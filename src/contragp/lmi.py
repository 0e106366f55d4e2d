"""Margin maximization for finite families of affine symmetric-matrix
constraints.

A problem asks for the decision vector z that maximizes eps subject to

    C_j + sum_k z_k A_{j,k}  >=  eps * I_{s_j}   for every block j.

This is the phase-I problem  min t  s.t.  C_j + sum_k z_k A_{j,k} + t I >= 0
(Boyd & Vandenberghe, Convex Optimization, sec. 11.4), solved along one
central path: Newton centering of  t/mu + Phi(z, t)  for a decreasing
sequence of mu, where Phi is the log-det barrier over the block-diagonal
PSD cone.  A centered iterate is within nu * mu of the optimal t (nu is the
barrier degree), which gives the stopping rule.  The path takes long steps:
mu shrinks by a factor of 50 per centering (sec. 11.3.3 recommends 10 to
100), so few centerings of a few more Newton steps each reach the width.
Each Newton step factors the Jacobi-scaled Hessian D^-1/2 H D^-1/2 with
D = |diag H|: near the boundary the curvature of the entries spans many
orders of magnitude, and the scaled system keeps the regularizer from
swamping the flat directions.  The factor follows the family's structure
(sec. 10.4.2): entries that one index list alone touches, such as one
design point's gains, form small local blocks, factored as one stack, and
only their Schur complement on the other entries, the border, is factored
dense.  Everything runs on numpy alone.  A centering ends at a
negligible Newton decrement, or at the roundoff floor: the objective is
self-concordant, so once the decrement is at most (1/2 - ARMIJO)**2 a full
Newton step passes the Armijo test in exact arithmetic (sec. 9.6.4), and a
full step that fails it means roundoff in the barrier value hides the
decrease.  Each point of the path is factored once: an accepted
line-search trial's Cholesky factors give the Newton derivatives there,
and each centering starts from the previous one's final point, since mu
enters only through t/mu.  Margins reported on solutions are always
recomputed from eigenvalue decompositions of the assembled blocks,
independent of the path.

Blocks may carry coefficient matrices for a subset of the decision entries
(``var_indices``); this keeps large point families cheap when each
constraint touches only a few variables.  Every linear inequality on the
decision vector (bounds on an entry, trace bounds and the like) is a 1 x 1
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DimensionError, NumericalFailureError,
                     UnboundedMarginError)

__all__ = [
    "AffineBlock",
    "LmiProblem",
    "LmiSolution",
    "solve",
]

# path parameters
MARGIN_CAP = 1e8      # a level t below -MARGIN_CAP raises UnboundedMarginError
MAX_NEWTON = 80       # Newton steps per centering
NEWTON_TOL = 1e-10    # a centering stops at Newton decrement <= 2 NEWTON_TOL
MU_FACTOR = 0.02      # mu shrinks by this factor between centerings
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
    margins: np.ndarray  # per-block smallest eigenvalues at z
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# assembly / certification


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


def _margins(groups, z, count):
    """Per-block smallest eigenvalues at z, the certificate of a solution:
    one stacked assembly (a gather of z and one batched matmul) and one
    stacked symmetric eigensolve per block group of :func:`_block_groups`;
    a 1 x 1 block is its own eigenvalue.  Independent of the barrier."""
    out = np.empty(count)
    for js, C, A, idx in groups:
        J, K, s, _ = A.shape
        M = C + (z[idx][:, None, :] @ A.reshape(J, K, s * s)).reshape(J, s, s)
        out[js] = (M[:, 0, 0] if s == 1
                   else np.linalg.eigvalsh(0.5 * (M + M.mT))[:, 0])
    return out


# ---------------------------------------------------------------------------
# solver internals
#
# The path runs on w = (z, t), the decision vector with the level t appended,
# so block j reads  C_j + sum_k z_k A_{j,k} + t I  and is linear in w.


def _local_blocks(m, index_lists):
    """The local blocks of the Newton system of z: the entries that one
    index list alone touches, per list, stacked by block size as (k, b)
    arrays of entries in order of their first.  No two blocks share a
    Hessian entry, since a constraint touching both would list both.  A
    list repeated by consecutive blocks of a group counts once; any other
    repetition, or an entry listed twice in one list, counts as another
    list and keeps its entries in the border.  With fewer than two lists
    that own entries there is nothing to eliminate, and every entry stays
    in the border."""
    entries, owners, count = [], [], 0
    for idx in index_lists:
        new = np.ones(len(idx), dtype=bool)
        new[1:] = (idx[1:] != idx[:-1]).any(axis=1)
        rows = idx[new]
        entries.append(rows.ravel())
        owners.append(np.repeat(np.arange(count, count + len(rows)),
                                rows.shape[1]))
        count += len(rows)
    entries, owners = np.concatenate(entries), np.concatenate(owners)
    local = np.bincount(entries, minlength=m)[entries] == 1
    entries, sizes = entries[local], np.bincount(owners[local])
    sizes = sizes[sizes > 0]
    if len(sizes) < 2:
        return []
    start = np.cumsum(sizes) - sizes
    stacks = []
    for b in np.unique(sizes):
        stack = entries[start[sizes == b][:, None] + np.arange(b)]
        stacks.append(stack[np.argsort(stack[:, 0])])
    return stacks


class _Split:
    """The partition of an n x n Newton system into local blocks, stacks
    of (k, b) entries that share no Hessian entry with one another, and
    the border, every other entry (ascending).  ``bb`` holds the flat
    indices in H of the border block.  A stack is kept with the stack
    last: its (b, k) entries ``loc``, and for the rows [diagonal blocks;
    border rows], (b + nb, b, k), each entry's row and its flat index in
    H (its column is the entry of ``loc`` below it)."""

    def __init__(self, n, stacks=()):
        self.n = n
        taken = np.zeros(n, dtype=bool)
        for loc in stacks:
            taken[loc] = True
        self.border = border = np.flatnonzero(~taken)
        nb = len(border)
        self.bb = border[:, None] * n + border
        self.eye = np.eye(nb)
        self.stacks = []
        for loc in stacks:
            loc = np.ascontiguousarray(np.asarray(loc, dtype=int).T)
            rows = np.empty((len(loc) + nb,) + loc.shape, dtype=int)
            rows[:len(loc)] = loc[:, None]
            rows[len(loc):] = border[:, None, None]
            self.stacks.append((loc, rows, rows * n + loc))


class _Workspace:
    """Precomputed arrays for fast barrier assembly.

    Per block group of :func:`_block_groups` every barrier point runs
    through stacked calls: one batched Cholesky factor per group (a root
    for 1 x 1 blocks), and at accepted points one stacked triangular
    inverse of the factors (a reciprocal) and one batched matmul per side
    of the coefficients.  Each group carries an identity slot for t.  The
    gradient and Hessian terms of all groups accumulate through one
    ``np.bincount`` each, over the groups' active indices and the distinct
    flat indices of H, concatenated in group order.  ``split`` is the
    Newton system's partition into local blocks and border
    (:func:`_local_blocks`, :class:`_Split`), made once per problem.
    """

    def __init__(self, problem: LmiProblem):
        m = problem.dim
        self.m = m
        self.block_groups = _block_groups(problem)
        self.groups = []
        # barrier degree: the sum of the block sizes
        self.nu = 0
        for _, C, A, idx in self.block_groups:
            n_items, _, s, _ = A.shape
            eye_slot = np.broadcast_to(np.eye(s), (n_items, 1, s, s))
            coeffs = np.concatenate([A, eye_slot], axis=1)
            self.groups.append({
                "const": 0.5 * (C + C.mT),
                "coeffs": coeffs,
                # [A_1 ... A_K] side by side: L^-1 A_k for all k in one matmul
                "row": np.ascontiguousarray(coeffs.transpose(0, 2, 1, 3)
                                            .reshape(n_items, s, -1)),
                "idx": np.concatenate([idx, np.full((n_items, 1), m)], axis=1),
            })
            self.nu += s * n_items
        # entry idx[j, k] of g and (idx[j, k], idx[j, l]) of the flattened
        # H; repeated indices accumulate, into H's distinct entries only
        self.idx = np.concatenate([grp["idx"].ravel() for grp in self.groups])
        flat = np.concatenate([
            (grp["idx"][:, :, None] * (m + 1) + grp["idx"][:, None, :]).ravel()
            for grp in self.groups])
        self.h_entries, self.h_bins = np.unique(flat, return_inverse=True)
        self.split = _Split(m + 1, _local_blocks(
            m, [idx for *_, idx in self.block_groups]))

    @staticmethod
    def assemble(group, w):
        return group["const"] + np.einsum("jk,jkab->jab", w[group["idx"]],
                                          group["coeffs"])


def _factor(ws: _Workspace, w):
    """The log-det barrier Phi of the blocks at w = (z, t), with each
    group's Cholesky factors; None when w is not strictly feasible."""
    phi = 0.0
    factors = []
    for grp in ws.groups:
        M = ws.assemble(grp, w)
        try:
            # a 1 x 1 factor is a square root (0 for a non-positive block):
            # LAPACK's bits, without its calls
            L = (np.sqrt(np.maximum(M, 0.0)) if M.shape[1] == 1
                 else np.linalg.cholesky(M))
        except np.linalg.LinAlgError:
            return None
        diag = np.diagonal(L, axis1=1, axis2=2)
        if not np.all(diag > 0.0):
            return None
        phi -= 2.0 * float(np.sum(np.log(diag)))
        factors.append(L)
    return phi, factors


def _tril_inv(L):
    """Inverses of a stack of lower-triangular matrices, by forward
    substitution row by row: row i of L^-1 is
    (e_i - sum_{k<i} L_ik row_k) / L_ii, each sum taken in order of k.
    The stack runs along the last axis, so every operation is on
    contiguous rows."""
    s = L.shape[-1]
    Lt = np.ascontiguousarray(L.transpose(1, 2, 0))
    eye = np.eye(s)[:, :, None]
    Li = np.empty_like(Lt)
    for i in range(s):
        r = eye[i]
        for k in range(i):
            r = r - Lt[i, k] * Li[k]
        Li[i] = r / Lt[i, i]
    return np.ascontiguousarray(Li.transpose(2, 0, 1))


def _derivs(ws: _Workspace, factors):
    """Gradient and Hessian of Phi from the factors of :func:`_factor`."""
    g_terms, h_terms = [], []
    for grp, L in zip(ws.groups, factors):
        A = grp["coeffs"]
        J, K, s, _ = A.shape
        # V_k = L^-1 A_k L^-T; grad gets -tr(V_k), Hessian <V_k, V_l>_F
        if s == 1:
            # a 1 x 1 inverse factor is a reciprocal and <V_k, V_l> a product
            Li = 1.0 / L[:, :, 0]
            v = Li * A[:, :, 0, 0] * Li
            g_terms.append(-v.ravel())
            h_terms.append((v[:, :, None] * v[:, None, :]).ravel())
            continue
        Li = _tril_inv(L)
        # L^-1 [A_1 ... A_K], then [L^-1 A_1; ...; L^-1 A_K] L^-T (a
        # contiguous L^-T: BLAS without a transposed operand, same bits)
        V = (Li @ grp["row"]).reshape(J, s, K, s).transpose(0, 2, 1, 3)
        V = (V.reshape(J, K * s, s)
             @ np.ascontiguousarray(Li.mT)).reshape(J, K, s, s)
        g_terms.append(-np.einsum("jkaa->jk", V).ravel())
        Vflat = V.reshape(J, K, s * s)
        h_terms.append((Vflat @ Vflat.mT).ravel())
    n = ws.m + 1
    g = np.bincount(ws.idx, np.concatenate(g_terms), minlength=n)
    H = np.zeros(n * n)
    H[ws.h_entries] = np.bincount(ws.h_bins, np.concatenate(h_terms),
                                  minlength=len(ws.h_entries))
    return g, H.reshape(n, n)


def _stack_cholesky(A, reg):
    """Lower Cholesky factors of A + reg I for a stack of symmetric
    matrices laid out (b, b, k), the stack last, column by column, each
    sum taken in order; the upper triangle is left unset.  None when a
    pivot is not positive (NaN included): positive pivots certify that
    every matrix of the stack is positive definite."""
    b = A.shape[0]
    L = np.empty_like(A)
    for j in range(b):
        p = A[j, j] + reg
        for q in range(j):
            p -= L[j, q] * L[j, q]
        if not p.min() > 0.0:
            return None
        np.sqrt(p, out=L[j, j])
        if j + 1 < b:
            s = A[j + 1:, j]
            for q in range(j):
                s = s - L[j + 1:, q] * L[j, q]
            np.divide(s, L[j, j], out=L[j + 1:, j])
    return L


def _stack_forward(L, R):
    """L^-1 R for the factors of :func:`_stack_cholesky` and right-hand
    sides laid out (c, b, k), row by row."""
    Y = np.empty_like(R)
    for i in range(L.shape[0]):
        s = R[:, i]
        for q in range(i):
            s = s - L[i, q] * Y[:, q]
        np.divide(s, L[i, i], out=Y[:, i])
    return Y


def _stack_backward(L, Z):
    """L^-T Z for the factors of :func:`_stack_cholesky` and Z laid out
    (b, k), row by row from the last."""
    b = L.shape[0]
    X = np.empty_like(Z)
    for i in reversed(range(b)):
        s = Z[i]
        for q in range(i + 1, b):
            s = s - L[q, i] * X[q]
        np.divide(s, L[i, i], out=X[i])
    return X


def _eliminate(split, border, rhs, local, reg):
    """The solution of a scaled Newton system plus reg I by block
    elimination over ``split``.  ``border`` and ``rhs`` are the border's
    block and right-hand side (``rhs`` is updated in place); ``local``
    holds per stack the rows [A; B; r], A its diagonal blocks, B its
    border rows and r its right-hand side.  Each stack is factored,
    A = L L^T, and Y = L^-1 [B; r]^T formed; Y^T Y holds its part of the
    border's Schur complement and right-hand side.  The Schur complement
    gets a dense Cholesky factor (its certificate) and a solve; one of t
    alone is a number, its own factor.  The local entries follow by back
    substitution.  None when a factor fails."""
    nb = len(rhs)
    S = border + reg * split.eye
    s = rhs
    solved = []
    for (loc, *_), P in zip(split.stacks, local):
        L = _stack_cholesky(P[:len(loc)], reg)
        if L is None:
            return None
        Y = _stack_forward(L, P[len(loc):])
        W = Y.reshape(nb + 1, -1)
        G = W @ W.T
        S -= G[:nb, :nb]
        s -= G[:nb, nb]
        solved.append((L, Y))
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
    y = np.empty(split.n)
    y[split.border] = yb
    for (loc, *_), (L, Y) in zip(split.stacks, solved):
        Z = Y[nb]
        for c in range(nb):
            Z = Z - yb[c] * Y[c]
        y[loc] = _stack_backward(L, Z)
    return y


def _newton_solve(H, g, split):
    """The Newton step -H^-1 g, from the Jacobi-scaled system
    S H S y = -S g with S = D^-1/2, D = |diag H| (1 where it is 0), and
    step = S y.  The factors see a unit diagonal, so the regularizer
    1e-13 (1 + max |diag|) no longer swamps directions of low curvature
    when other entries' curvature is many orders larger.

    H is read on the pattern of ``split`` (a :class:`_Split`) only, and
    the scaled system is solved by block elimination (Boyd & Vandenberghe,
    sec. 10.4.2): the local blocks by one stacked Cholesky factor, the
    border by a dense one of its Schur complement.  reg grows x100 while a
    factor fails or the solution (so H or g) is not finite, six tries,
    then ``lstsq`` solves the whole scaled system."""
    hd = np.diagonal(H)
    d = np.abs(hd)
    r = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    reg = 1e-13 * (1.0 + float(np.abs(r * hd * r).max(initial=0.0)))
    gr = -g * r
    rb = r[split.border]
    border = H.reshape(-1)[split.bb] * (rb[:, None] * rb)
    local = []
    for loc, rows, flat in split.stacks:
        P = np.empty((len(rows) + 1,) + loc.shape)
        np.multiply(H.reshape(-1)[flat], r[rows] * r[loc], out=P[:-1])
        P[-1] = gr[loc]
        local.append(P)
    for _ in range(6):
        y = _eliminate(split, border, gr[split.border], local, reg)
        if y is not None and np.isfinite(y).all():
            return r * y
        reg *= 100.0
    n = H.shape[0]
    return r * np.linalg.lstsq(r[:, None] * H * r + reg * np.eye(n),
                               -(r * g), rcond=None)[0]


def _minimize_barrier(ws, point, mu, info):
    """Newton descent of  t/mu + Phi  from point = (w, Phi, grad Phi,
    Hessian of Phi); returns (point, converged) with the final point.

    Raises UnboundedMarginError once t falls below -``MARGIN_CAP``.
    """
    trace = info["trace"]
    alpha0 = 1.0  # adaptive start; boundary-hugging iterates reuse short steps
    for it in range(MAX_NEWTON):
        w, phi, dphi, H = point
        if w[-1] < -MARGIN_CAP:
            raise UnboundedMarginError(
                "margin maximization appears unbounded; add normalization "
                "blocks that bound the decision vector")
        f = phi + w[-1] / mu
        g = dphi.copy()
        g[-1] += 1.0 / mu
        step = _newton_solve(H, g, ws.split)
        decrement = float(-g @ step)
        if not np.isfinite(decrement):
            raise NumericalFailureError("non-finite Newton decrement", trace)
        if decrement <= 2.0 * NEWTON_TOL:
            return point, True
        info["newton_steps"] += 1
        # t/mu + Phi is self-concordant, so at this decrement a full step
        # passes the Armijo test in exact arithmetic (Boyd & Vandenberghe,
        # sec. 9.6.4); if it fails, roundoff in f hides the decrease and
        # the centering is as good as it gets
        full = decrement <= (0.5 - ARMIJO) ** 2
        alpha = 1.0 if full else alpha0
        for _ in range(60):
            w_try = w + alpha * step
            trial = _factor(ws, w_try)
            if (trial is not None and trial[0] + w_try[-1] / mu
                    <= f - ARMIJO * alpha * decrement):
                break
            if full:
                info["floor_stops"] += 1
                trace.append(f"centering at roundoff floor (mu={mu:.2e}, "
                             f"decrement={decrement:.2e})")
                return point, True
            alpha *= 0.5
            info["backtracks"] += 1
        else:
            trace.append(f"line search stalled (mu={mu:.2e}, it={it})")
            return point, False
        point = (w_try, trial[0], *_derivs(ws, trial[1]))
        alpha0 = min(1.0, 4.0 * alpha)
    trace.append(f"newton budget exhausted (mu={mu:.2e})")
    return point, False


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
    ``backtracks`` (line-search halvings), ``floor_stops``, ``final_mu``
    and ``final_gap`` = nu * ``final_mu``, the barrier gap of the last
    centering.  mu starts at max(1, |margin at the start|) / nu and shrinks
    by ``MU_FACTOR`` per centering; each Newton step solves the
    Jacobi-scaled system and unscales the step.  A centering counts as
    converged at Newton decrement ``<= 2 NEWTON_TOL``, or when the
    decrement is at most ``(0.5 - ARMIJO)**2`` and the full Newton step,
    which passes the Armijo test there in exact arithmetic, fails it: that
    centering is at the roundoff floor of the barrier value, adds one to
    ``floor_stops`` and a ``centering at roundoff floor`` line to
    ``trace``.  The per-block ``margins`` and their least, ``margin``, are
    eigensolves at the final z.
    """
    problem.validate()
    ws = _Workspace(problem)
    info = {"newton_steps": 0, "barrier_stages": 0, "backtracks": 0,
            "floor_stops": 0, "trace": []}
    z0 = (np.zeros(problem.dim) if problem.initial_z is None
          else np.array(problem.initial_z, dtype=float).reshape(-1))
    if z0.shape[0] != problem.dim:
        raise DimensionError("initial_z", problem.dim, z0.shape[0])
    margins = _margins(ws.block_groups, z0, len(problem.blocks))
    m0 = float(margins.min())
    w = np.append(z0, -m0 + 0.05 * abs(m0) + 1e-8)
    # a centered iterate lies within nu * mu of the optimal level: start
    # where that gap is the scale of the starting margin, so the first
    # stage does not push t far from it
    mu = max(1.0, abs(m0)) / ws.nu
    try:
        start = _factor(ws, w)
        if start is None:
            raise NumericalFailureError(
                "barrier start point not strictly feasible", info["trace"])
        point = (w, start[0], *_derivs(ws, start[1]))
        while True:
            info["barrier_stages"] += 1
            info["final_mu"] = mu
            info["final_gap"] = ws.nu * mu
            # each centering starts at the last one's point, where only
            # t/mu changes
            point, converged = _minimize_barrier(ws, point, mu, info)
            w = point[0]
            if ((converged and ws.nu * mu <= width)
                    or mu <= MU_FLOOR * max(1.0, abs(w[-1]))):
                break
            mu *= MU_FACTOR
    except NumericalFailureError as exc:
        info["message"] = str(exc)
        info["trace"] = exc.trace or info["trace"]
        return LmiSolution(z=z0, margin=-np.inf, status="numerical-failure",
                           margins=margins, info=info)
    z = w[:-1]
    margins = _margins(ws.block_groups, z, len(problem.blocks))
    margin = float(margins.min())
    if margin >= FEAS_TOL:
        status = "optimal"
    else:
        status = "infeasible"
        info["best_margin"] = margin
        info["best_margin_upper"] = margin + ws.nu * mu
    return LmiSolution(z=z, margin=margin, status=status, margins=margins,
                       info=info)

