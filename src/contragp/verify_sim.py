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
    "rollout",
    "rollout_stochastic",
    "contraction_rate",
    "weighted_norm",
]


def weighted_norm(x, W):
    """sqrt(x^T W x)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(np.sqrt(max(x @ np.asarray(W) @ x, 0.0)))


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
        closed = [np.asarray(model.drift_jacobian(x), dtype=float)
                  for x in pts]
    else:
        closed = closed_loop_jacobians(model, controller, pts)
    margins = np.array([np.linalg.eigvalsh(ies_block(P, A))[0]
                        for A in closed])
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


def rollout(model, controller, x0, horizon):
    """Deterministic closed-loop trajectory; truncates and flags divergence
    when any coordinate passes 1e6."""
    if horizon < 1:
        raise DataError("horizon must be at least 1")
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = [x.copy()]
    inputs = []
    for _ in range(horizon):
        u = 0.0 if controller is None else controller.control(x)
        x = model.step(x, u)
        inputs.append(u)
        states.append(x.copy())
        if np.any(np.abs(x) > DIVERGENCE_LIMIT):
            return Trajectory(np.asarray(states), np.asarray(inputs),
                              diverged=True)
    return Trajectory(np.asarray(states), np.asarray(inputs))


def rollout_stochastic(loop, x0, horizon, seed):
    """Trajectory of the learned stochastic closed loop x+ = mu_c(x) +
    sigma(x) w with standard normal i.i.d. w; bitwise reproducible for a
    fixed seed."""
    if horizon < 1:
        raise DataError("horizon must be at least 1")
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).reshape(-1)
    n = x.shape[0]
    states = [x.copy()]
    inputs = []
    for _ in range(horizon):
        u = loop.control_value(x)
        w = rng.standard_normal(n)
        x = np.asarray(loop.mean(x), dtype=float) + np.asarray(loop.noise_std(x)) * w
        inputs.append(u)
        states.append(x.copy())
        if np.any(np.abs(x) > DIVERGENCE_LIMIT):
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
        for k in range(A.shape[0] - 1):
            if region is not None and not (
                    region.contains(A[k]) and region.contains(B[k])):
                excluded += 1
                continue
            d0 = weighted_norm(A[k] - B[k], P)
            if d0 < tiny:
                skipped += 1
                continue
            d1 = weighted_norm(A[k + 1] - B[k + 1], P)
            lam = max(lam, d1 / d0)
            used += 1
    info = {"used": used, "skipped": skipped, "excluded": excluded,
            "all_skipped": used == 0}
    return lam, info
