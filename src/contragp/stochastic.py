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

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .linalg import symmetrize

__all__ = ["sigma_jacobian", "moment_ies_check", "MomentReport",
           "chebyshev_hulls"]

SIGMA_FLOOR = 1e-8


def sigma_jacobian(model, X):
    """Rows d sigma_i / dx of the posterior std field at a stack of states,
    shape (B, n, n), with flags (B, n).

    The analytic path differentiates the posterior variance; where sigma_i
    falls below the floor the analytic quotient degenerates, and the row is
    flagged and taken in closed form: with vanishing variance, sigma_i
    grows like |h| sqrt(C_jj) along coordinate j, C the component's
    ``jac_variance``, so the row is sqrt(diag(C)).  The floor on the
    variance is ``SIGMA_FLOOR**2`` plus its roundoff, 64 eps k(x, x).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B, n = X.shape
    rows = np.zeros((B, len(model.components), n))
    flags = np.zeros((B, len(model.components)), dtype=bool)
    for i, comp in enumerate(model.components):
        if comp.fixed:
            continue
        v = comp.value_variance(X)
        sd = np.sqrt(v)
        low = v <= (SIGMA_FLOOR ** 2
                    + 64.0 * np.finfo(float).eps * comp.kernel.diag_value(X))
        flags[:, i] = low
        rows[~low, i] = (comp.variance_total_gradient(X[~low])
                         / (2.0 * sd[~low, None]))
        if np.any(low):
            rows[low, i] = np.sqrt(np.clip(np.diagonal(
                comp.jac_variance(X[low]), axis1=1, axis2=2), 0.0, None))
    return rows, flags


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


def moment_ies_check(metric, points, J, rows, flags):
    """Second-moment contraction margins of the learned stochastic loop
    x+ = f(x) + b u(x) + diag(sigma(x)) w at a stack of states.

    ``J`` (B, n, n) holds the closed-loop Jacobians at ``points``, and
    ``rows`` (B, n, n) and ``flags`` (B, n) are :func:`sigma_jacobian`
    there.  Each margin is the smallest eigenvalue of
    ``Pbar - J^T Pbar J - sum_i Pbar_ii (dsigma_i)^T (dsigma_i)``, Pbar the
    metric; the check passes when the global minimum is positive.  With
    zero diffusion this reduces exactly to the deterministic quadratic
    margin."""
    Pbar = np.asarray(metric, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
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
    out = replace(hulls, lo=lo, hi=hi, pinned=pinned,
                  confidence=float((1.0 - n / c) ** n))
    out.check_budget()
    return out
