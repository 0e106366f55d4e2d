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
from scipy.linalg import cholesky, solve_triangular

from .errors import DataError, DimensionError
from .synthesis import closed_loop_jacobians, ies_block
from .systems import Box, grid_points

__all__ = [
    "VerificationReport",
    "Trajectory",
    "verify_grid",
    "rollouts",
    "rollout_stochastic",
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
    P = np.asarray(P, dtype=float)
    pts = grid_points(domain, resolution)
    L = cholesky(P, lower=True)
    if controller is None:
        closed = np.asarray(model.drift_jacobian(pts), dtype=float)
    else:
        closed = closed_loop_jacobians(model, controller, pts)
    margins = np.linalg.eigvalsh(ies_block(P, closed))[:, 0]
    factors = np.array([np.linalg.svd(solve_triangular(L, A @ L, lower=True),
                                      compute_uv=False)[0] for A in closed])
    lam = float(factors.max())
    min_margin = float(margins.min())
    consistent = (lam < 1.0) == (min_margin > 0.0)
    Pinvs = solve_triangular(L, np.eye(P.shape[0]), lower=True)
    weight = Pinvs.T @ Pinvs
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


def _diverged(X):
    """Rows of X that left the finite range or passed DIVERGENCE_LIMIT
    (NaN fails the comparison, so it counts as diverged)."""
    return ~(np.abs(X) <= DIVERGENCE_LIMIT).all(axis=-1)


def rollouts(model, law, X0, horizon):
    """Deterministic closed-loop trajectories from every row of ``X0``,
    simulated in lockstep.

    Each step makes one ``law.control_batch`` call on the stack of active
    states (zero input when ``law`` is None) and one ``model.step``.
    A trajectory whose state turns non-finite or passes 1e6 in any
    coordinate is truncated at that step, flagged as diverged, and leaves
    the active set.  Until one does, every trajectory is active: the
    active set is a slice and the divergence test one reduction.
    """
    if horizon < 1:
        raise DataError("horizon must be at least 1")
    X = np.atleast_2d(np.asarray(X0, dtype=float))
    if not np.all(np.isfinite(X)):
        raise DataError("initial states contain NaN or infinite entries")
    count, n = X.shape
    # one row per trajectory, so each returned trajectory is a view
    states = np.empty((count, horizon + 1, n))
    inputs = np.zeros((count, horizon))
    states[:, 0] = X
    ends = np.full(count, horizon)
    diverged = np.zeros(count, dtype=bool)
    active = slice(None)  # the rows of the active trajectories
    for k in range(horizon):
        U = np.zeros(len(X)) if law is None else law.control_batch(X)
        inputs[active, k] = U
        X = model.step(X, U)
        states[active, k + 1] = X
        # NaN fails the comparison too; an empty stack passes
        if np.abs(X).max(initial=0.0) <= DIVERGENCE_LIMIT:
            continue
        bad = _diverged(X)
        rows = np.arange(count)[active]
        ends[rows[bad]] = k + 1
        diverged[rows[bad]] = True
        active, X = rows[~bad], X[~bad]
        if active.size == 0:
            break
    return [Trajectory(states[i, :ends[i] + 1], inputs[i, :ends[i]],
                       diverged=bool(diverged[i])) for i in range(count)]


def rollout_stochastic(loop, x0, horizon, seed):
    """Trajectory of the learned stochastic closed loop x+ = mu_c(x) +
    sigma(x) w with standard normal i.i.d. w; bitwise reproducible for a
    fixed seed.  Each step passes the loop's callables a one-row stack."""
    if horizon < 1:
        raise DataError("horizon must be at least 1")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise DataError("initial state contains NaN or infinite entries")
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    states = [x.copy()]
    inputs = []
    for _ in range(horizon):
        X = x[None]
        u = float(loop.control(X)[0])
        w = rng.standard_normal(n)
        x = (np.asarray(loop.mean(X), dtype=float)[0]
             + np.asarray(loop.noise_std(X), dtype=float)[0] * w)
        inputs.append(u)
        states.append(x.copy())
        if _diverged(x):
            return Trajectory(np.asarray(states), np.asarray(inputs),
                              seed=seed, diverged=True)
    return Trajectory(np.asarray(states), np.asarray(inputs), seed=seed)


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
