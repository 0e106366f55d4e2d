"""Post-synthesis certification and closed-loop simulation.

Grid verification evaluates the one-step certificate block at every grid
point and, through Cholesky whitening of the metric, the per-point
contraction factor of the closed-loop Jacobian; the two views must agree in
sign and are cross-checked on every run.  Step ratios of simulated
trajectory pairs give the empirical counterpart.

Note on orientation: the block [[P, (AP)^T], [AP, P]] being PSD is
equivalent to || L^{-1} A L ||_2 <= 1 with P = L L^T, i.e. the closed loop
contracts distances weighted by P^{-1}.  All trajectory-decrease checks in
this module therefore weight by the inverse of the synthesized metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .systems import Box, grid_points

__all__ = [
    "VerificationReport",
    "Trajectory",
    "Chunk",
    "verify_grid",
    "rollout_chunks",
    "gather",
    "rollouts",
    "contraction_rate",
    "weighted_norms",
]


def weighted_norms(X, W):
    """sqrt(x^T W x) for every row x of X, shape (B,)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    q = np.sum((X @ np.asarray(W, dtype=float)) * X, axis=1)
    return np.sqrt(np.maximum(q, 0.0))


@dataclass
class VerificationReport:
    domain: Box
    resolution: int
    points: np.ndarray
    margins: np.ndarray
    factors: np.ndarray
    min_margin: float
    lam: float
    consistent: bool
    weight: np.ndarray  # P^{-1}, the norm in which steps contract

    def to_dict(self):
        return {
            "resolution": int(self.resolution),
            "min_margin": float(self.min_margin),
            "lambda": float(self.lam),
            "consistent": bool(self.consistent),
            "domain": {"lo": list(self.domain.lo), "hi": list(self.domain.hi)},
        }


def verify_grid(model, controller, P, domain: Box, resolution):
    """Evaluate closed-loop certificate blocks on a uniform grid.

    Reports per-point block margins, per-point contraction factors, their
    extremes, and whether the two agree (margin positive exactly where the
    factor is below one).
    """
    # imported here, so that the rollouts load neither synthesis nor lmi
    from .synthesis import closed_loop_jacobians, ies_block
    P = np.asarray(P, dtype=float)
    # numpy's factor carries a NaN or an inf through instead of failing
    if not np.isfinite(P).all():
        raise DataError("the metric P must be finite")
    pts = grid_points(domain, resolution)
    L = np.linalg.cholesky(P)
    closed = closed_loop_jacobians(model, controller, pts)
    margins = np.linalg.eigvalsh(ies_block(P, closed))[:, 0]
    factors = np.array([np.linalg.svd(np.linalg.solve(L, A @ L),
                                      compute_uv=False)[0] for A in closed])
    lam = float(factors.max())
    min_margin = float(margins.min())
    consistent = (lam < 1.0) == (min_margin > 0.0)
    Li = np.linalg.inv(L)
    weight = Li.T @ Li
    return VerificationReport(domain=domain, resolution=int(np.max(resolution)),
                              points=pts, margins=margins, factors=factors,
                              min_margin=min_margin, lam=lam,
                              consistent=consistent, weight=weight)


@dataclass
class Trajectory:
    states: np.ndarray  # (K+1, n)
    inputs: np.ndarray  # (K,)
    seed: int | None = None
    diverged: bool = False

    @property
    def horizon(self):
        return self.states.shape[0] - 1


DIVERGENCE_LIMIT = 1e6
CHUNK = 2500  # steps per chunk of rollout_chunks


def _diverged(X):
    """Rows of X that left the finite range or passed DIVERGENCE_LIMIT
    (NaN fails the comparison, so it counts as diverged)."""
    return ~(np.abs(X) <= DIVERGENCE_LIMIT).all(axis=-1)


@dataclass
class Chunk:
    """Steps ``start`` to ``start + m - 1`` of lockstep rollouts, m at most
    ``CHUNK``: ``states[i, j]`` is trajectory i's state at step
    ``start + j`` (row 0 repeats the previous chunk's last state) and
    ``inputs[i, j]`` the input applied there.  ``ends[i]`` is the step at
    which trajectory i ends: the horizon, or the step at which it diverged;
    the entries past it hold no data."""
    start: int
    states: np.ndarray  # (count, m + 1, n)
    inputs: np.ndarray  # (count, m)
    ends: np.ndarray  # (count,)
    diverged: np.ndarray  # (count,) bool

    def steps(self, i):
        """The number of trajectory i's steps in this chunk, 0 once it has
        ended in an earlier one."""
        return int(min(self.inputs.shape[1], max(self.ends[i] - self.start,
                                                 0)))


def rollout_chunks(model, law, X0, horizon, noise_std=None, seed=None):
    """Closed-loop trajectories from every row of ``X0``, simulated in
    lockstep and yielded as :class:`Chunk` s of ``CHUNK`` steps, so a
    consumer holds one chunk's states at a time.

    Each step makes one ``law.control_batch`` call on the stack of active
    states and one ``model.step``.  With ``noise_std`` the loop is the
    stochastic one x+ = f(x) + b u + diag(sigma(x)) w: each step adds
    ``noise_std(X) * w``, sigma taken at the pre-step states and w standard
    normal from ``np.random.default_rng(seed)``, one stream across the
    chunks.  The active rows share that stream, so a row's noise depends on
    which other rows are active; a one-row stack is reproducible per seed
    on its own.
    A trajectory whose state turns non-finite or passes 1e6 in any
    coordinate is truncated at that step, flagged as diverged, and leaves
    the active set.  Until one does, every trajectory is active: the
    active set is a slice and the divergence test one reduction.  The last
    chunk ends with the last active trajectory.
    """
    if horizon < 1:
        raise DataError("horizon must be at least 1")
    X = np.atleast_2d(np.asarray(X0, dtype=float))
    if not np.all(np.isfinite(X)):
        raise DataError("initial states contain NaN or infinite entries")
    count, n = X.shape
    ends = np.full(count, horizon)
    diverged = np.zeros(count, dtype=bool)
    active = slice(None)  # the rows of the active trajectories
    rng = None if noise_std is None else np.random.default_rng(seed)
    start = 0
    while start < horizon and len(X):
        steps = min(CHUNK, horizon - start)
        states = np.empty((count, steps + 1, n))
        inputs = np.zeros((count, steps))
        states[active, 0] = X
        for j in range(steps):
            U = law.control_batch(X)
            inputs[active, j] = U
            if rng is None:
                X = model.step(X, U)
            else:
                X = (model.step(X, U)
                     + noise_std(X) * rng.standard_normal(X.shape))
            states[active, j + 1] = X
            # NaN fails the comparison too
            if np.abs(X).max() <= DIVERGENCE_LIMIT:
                continue
            bad = _diverged(X)
            rows = np.arange(count)[active]
            ends[rows[bad]] = start + j + 1
            diverged[rows[bad]] = True
            active, X = rows[~bad], X[~bad]
            if not len(X):
                break
        yield Chunk(start, states[:, :j + 2], inputs[:, :j + 1], ends.copy(),
                    diverged.copy())
        start += steps


def gather(chunks, seed=None):
    """The whole trajectories of one :func:`rollout_chunks` run from its
    chunks, each tagged with ``seed``."""
    chunks = list(chunks)
    if not chunks:
        return []
    last = chunks[-1]
    return [Trajectory(
        np.concatenate([chunks[0].states[i, :1]]
                       + [c.states[i, 1:c.steps(i) + 1] for c in chunks]),
        np.concatenate([c.inputs[i, :c.steps(i)] for c in chunks]),
        seed=seed, diverged=bool(last.diverged[i]))
        for i in range(len(last.ends))]


def rollouts(model, law, X0, horizon, noise_std=None, seed=None):
    """The whole closed-loop trajectories of :func:`rollout_chunks` from
    every row of ``X0``, one :class:`Trajectory` per row."""
    return gather(rollout_chunks(model, law, X0, horizon, noise_std, seed),
                  seed)


def contraction_rate(pairs, P, region: Box | None = None, tiny=1e-12):
    """Largest one-step P-weighted distance ratio over trajectory pairs.

    Ratios with a denominator below ``tiny`` are skipped (NaN safety), and
    with ``region`` given only steps whose states all lie inside count;
    skipped/excluded totals are reported.  Returns ``(lam_hat, info)`` with
    ``lam_hat = 0`` and a flag when every ratio was skipped.
    """
    P = np.asarray(P, dtype=float)
    lam = 0.0
    used = skipped = excluded = 0
    for ta, tb in pairs:
        A, B = ta.states, tb.states
        if A.shape != B.shape:
            raise DimensionError("pairs", A.shape, B.shape)
        d = weighted_norms(A - B, P)
        d0, d1 = d[:-1], d[1:]
        if region is not None:
            inside = region.contains_rows(A[:-1]) & region.contains_rows(B[:-1])
            excluded += int(np.count_nonzero(~inside))
            d0, d1 = d0[inside], d1[inside]
        small = d0 < tiny
        skipped += int(np.count_nonzero(small))
        used += int(np.count_nonzero(~small))
        # fmax skips NaN ratios, as the scalar max(lam, nan) did
        lam = float(np.fmax.reduce(d1[~small] / d0[~small], initial=lam))
    info = {"used": used, "skipped": skipped, "excluded": excluded,
            "all_skipped": used == 0}
    return lam, info
