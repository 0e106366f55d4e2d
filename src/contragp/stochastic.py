"""Learning-error compensation: moment contraction margins and
probability-inflated Jacobian hulls.

A learned closed loop is a stochastic system whose diffusion is the
per-component posterior std of the drift model.  Its second-moment
contraction margin subtracts a diffusion-gradient penalty from the
deterministic quadratic margin; hull inflation widens Jacobian intervals by
covariance-scaled half-widths so the true Jacobian row stays inside with a
guaranteed probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import eig_min_sym
from .synthesis import closed_loop_jacobians

__all__ = ["StochasticClosedLoop", "sigma_jacobian", "moment_ies_check",
           "MomentReport", "chebyshev_hulls", "quadratic_margin"]

SIGMA_FLOOR = 1e-8


def quadratic_margin(A, P):
    """lambda_min(P - A^T P A): the quadratic one-step decrease margin of a
    linear(ized) map in the metric P."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    return eig_min_sym(P - A.T @ P @ A)


def sigma_jacobian(model, x):
    """Rows d sigma_i / dx of the posterior std field, with flags.

    The analytic path differentiates the posterior variance; where sigma_i
    falls below the floor the row comes from one-sided finite differences of
    sigma_i itself and is flagged (the analytic quotient degenerates there).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = len(model.components)
    rows = np.zeros((n, x.shape[0]))
    flags = np.zeros(n, dtype=bool)
    for i, comp in enumerate(model.components):
        if getattr(comp, "fixed", False):
            continue
        sd = float(np.sqrt(max(comp.value_variance(x), 0.0)))
        if sd >= SIGMA_FLOOR:
            rows[i] = comp.variance_total_gradient(x) / (2.0 * sd)
        else:
            flags[i] = True
            h = 1e-6
            for j in range(x.shape[0]):
                e = np.zeros_like(x)
                e[j] = h
                sd_j = float(np.sqrt(max(comp.value_variance(x + e), 0.0)))
                rows[i, j] = (sd_j - sd) / h
    return rows, flags


class StochasticClosedLoop:
    """x+ = mean(x) + diag(noise_std(x)) w, w ~ N(0, I) i.i.d.

    Built either from raw callables or from a learned drift model plus a
    feedback law; ``metric`` is the weight of the moment margin check.
    ``mean`` and ``mean_jac`` map a stack of states, shape (B, n), to
    (B, n) and (B, n, n); ``noise_std`` and ``noise_jac`` take one state.
    """

    def __init__(self, mean, mean_jac, noise_std, noise_jac, metric,
                 control=None):
        self.mean = mean
        self.mean_jac = mean_jac
        self.noise_std = noise_std
        self.noise_jac = noise_jac
        self.metric = np.asarray(metric, dtype=float)
        self._control = control

    def control_value(self, x):
        return 0.0 if self._control is None else float(self._control(x))

    @classmethod
    def from_drift_model(cls, model, controller, b, metric):
        """Closed loop of a learned mean field under a feedback law applied
        through the constant input vector b."""
        b = np.asarray(b, dtype=float).reshape(-1)
        system = model.as_system_model(b=b)

        def mean(X):
            return model.mean(X) + b * controller.control_batch(X)[:, None]

        def mean_jac(X):
            return closed_loop_jacobians(system, controller, X)

        def noise_std(x):
            return model.value_std(x)

        def noise_jac(x):
            return sigma_jacobian(model, x)

        return cls(mean, mean_jac, noise_std, noise_jac, metric,
                   control=controller.control)


@dataclass
class MomentReport:
    points: np.ndarray
    margins: np.ndarray
    flagged: np.ndarray
    eps_bar: float
    passed: bool
    noise_terms: np.ndarray = None

    def to_dict(self):
        return {
            "eps_bar": float(self.eps_bar),
            "passed": bool(self.passed),
            "margins": [float(v) for v in self.margins],
            "flagged_points": int(np.sum(self.flagged)),
            "max_noise_term": float(self.noise_terms.max())
            if self.noise_terms is not None and len(self.noise_terms) else 0.0,
        }


def moment_ies_check(loop: StochasticClosedLoop, grid):
    """Second-moment contraction margins of the stochastic closed loop.

    At each grid point the margin is the smallest eigenvalue of
    ``Pbar - J^T Pbar J - sum_i Pbar_ii (dsigma_i)^T (dsigma_i)`` with J the
    mean Jacobian; the check passes when the global minimum is positive.
    With zero diffusion this reduces exactly to the deterministic quadratic
    margin."""
    Pbar = loop.metric
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    margins = np.empty(len(pts))
    noise_terms = np.empty(len(pts))
    flagged = np.zeros(len(pts), dtype=bool)
    for idx, (x, J) in enumerate(zip(pts, loop.mean_jac(pts))):
        rows = loop.noise_jac(x)
        if isinstance(rows, tuple):
            rows, flags = rows
            flagged[idx] = bool(np.any(flags))
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        noise = np.zeros_like(Pbar)
        for i in range(rows.shape[0]):
            noise += Pbar[i, i] * np.outer(rows[i], rows[i])
        M = Pbar - J.T @ Pbar @ J - noise
        margins[idx] = eig_min_sym(M)
        noise_terms[idx] = float(np.linalg.eigvalsh(0.5 * (noise + noise.T))[-1])
    eps_bar = float(margins.min())
    return MomentReport(points=pts, margins=margins, flagged=flagged,
                        eps_bar=eps_bar, passed=bool(eps_bar > 0.0),
                        noise_terms=noise_terms)


def chebyshev_hulls(model, hulls, c):
    """Inflate hull intervals so each learned Jacobian row stays inside with
    probability at least 1 - n/c per row.

    Each uncertain row gains entrywise half-widths sqrt(c * diag of the
    row's posterior covariance at the cell center) - the bounding box of the
    covariance ellipsoid at level c.  The returned hull records the joint
    confidence (1 - n/c)^n over the rows.  Fixed rows are untouched.
    """
    n = hulls.dim
    if c <= n:
        raise DataError(f"c must exceed the dimension n={n} "
                        "(the tail bound is vacuous otherwise)")
    lo = hulls.lo.copy()
    hi = hulls.hi.copy()
    pinned = hulls.pinned.copy()
    for idx in range(hulls.n_cells):
        x = hulls.centers[idx]
        for i in range(n):
            comp = model.components[i]
            if getattr(comp, "fixed", False):
                continue
            V = model.jac_row_variance(i, x)
            hw = np.sqrt(np.clip(c * np.diag(V), 0.0, None))
            lo[idx, i, :] -= hw
            hi[idx, i, :] += hw
            pinned[idx, i, :] &= hw <= 0.0
    out = type(hulls)(cells=list(hulls.cells), centers=hulls.centers.copy(),
                      lo=lo, hi=hi, pinned=pinned,
                      vertex_cap=hulls.vertex_cap,
                      confidence=float((1.0 - n / c) ** n),
                      subdivisions=hulls.subdivisions)
    out.check_budget()
    return out
