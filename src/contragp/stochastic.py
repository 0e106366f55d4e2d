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
from .linalg import eig_min_sym, symmetrize
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


def sigma_jacobian(model, X):
    """Rows d sigma_i / dx of the posterior std field at a stack of states,
    shape (B, n, n), with flags (B, n).

    The analytic path differentiates the posterior variance; where sigma_i
    falls below the floor the row comes from one-sided finite differences of
    sigma_i itself and is flagged (the analytic quotient degenerates there).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B, n = X.shape
    rows = np.zeros((B, len(model.components), n))
    flags = np.zeros((B, len(model.components)), dtype=bool)
    h = 1e-6
    for i, comp in enumerate(model.components):
        if comp.fixed:
            continue
        sd = np.sqrt(comp.value_variance(X))
        low = sd < SIGMA_FLOOR
        flags[:, i] = low
        rows[~low, i] = (comp.variance_total_gradient(X[~low])
                         / (2.0 * sd[~low, None]))
        if np.any(low):
            # row j of each floored state's (n, n) stack steps coordinate j
            shifted = X[low][:, None, :] + h * np.eye(n)
            sd_h = np.sqrt(comp.value_variance(shifted.reshape(-1, n)))
            rows[low, i] = (sd_h.reshape(-1, n) - sd[low, None]) / h
    return rows, flags


class StochasticClosedLoop:
    """x+ = mean(x) + diag(noise_std(x)) w, w ~ N(0, I) i.i.d.

    Built either from raw callables or from a learned drift model plus a
    feedback law; ``metric`` is the weight of the moment margin check.
    Every callable maps a stack of states, shape (B, n): ``mean`` to (B, n),
    ``mean_jac`` to (B, n, n), ``noise_std`` to (B, n), ``noise_jac`` to the
    rows and flags of :func:`sigma_jacobian`, (B, n, n) and (B, n), and
    ``control`` to (B,) (zero input when omitted).
    """

    def __init__(self, mean, mean_jac, noise_std, noise_jac, metric,
                 control=None):
        self.mean = mean
        self.mean_jac = mean_jac
        self.noise_std = noise_std
        self.noise_jac = noise_jac
        self.metric = np.asarray(metric, dtype=float)
        self.control = control or (lambda X: np.zeros(len(X)))

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

        def noise_jac(X):
            return sigma_jacobian(model, X)

        return cls(mean, mean_jac, model.value_std, noise_jac, metric,
                   control=controller.control_batch)


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
    J = loop.mean_jac(pts)
    rows, flags = loop.noise_jac(pts)
    noise = np.zeros((len(pts),) + Pbar.shape)
    for i in range(rows.shape[1]):
        noise += Pbar[i, i] * (rows[:, i, :, None] * rows[:, i, None, :])
    M = Pbar - np.swapaxes(J, -1, -2) @ Pbar @ J - noise
    # one stacked eigensolve: the margins, then the noise terms
    eig = np.linalg.eigvalsh(symmetrize(np.concatenate([M, noise])))
    margins = eig[:len(pts), 0]
    noise_terms = eig[len(pts):, -1]
    eps_bar = float(margins.min())
    return MomentReport(points=pts, margins=margins,
                        flagged=np.any(flags, axis=1), eps_bar=eps_bar,
                        passed=bool(eps_bar > 0.0), noise_terms=noise_terms)


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
    for i, comp in enumerate(model.components[:n]):
        if comp.fixed:
            continue
        V = comp.jac_variance(hulls.centers)
        hw = np.sqrt(np.clip(c * np.diagonal(V, axis1=1, axis2=2), 0.0, None))
        lo[:, i, :] -= hw
        hi[:, i, :] += hw
        pinned[:, i, :] &= hw <= 0.0
    out = type(hulls)(cells=list(hulls.cells), centers=hulls.centers.copy(),
                      lo=lo, hi=hi, pinned=pinned,
                      vertex_cap=hulls.vertex_cap,
                      confidence=float((1.0 - n / c) ** n),
                      subdivisions=hulls.subdivisions)
    out.check_budget()
    return out
