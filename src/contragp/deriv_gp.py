"""Scalar-function regression from gradient data.

This is the non-standard use of GP regression that makes contraction-based
design tractable: the feedback law u = m(x) is the posterior mean of a GP
conditioned on *derivative* observations, so prescribing gradient values at
data points simultaneously prescribes an integrable feedback law.  The
posterior mean and its gradient are linear in the observed data, which is
what turns the design conditions into affine matrix constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import DataError, DimensionError, FactorizationError
from .kernels import Kernel
from .linalg import BLOCK, blockwise, chol_with_jitter

__all__ = [
    "DerivativeDataset",
    "DerivativeController",
    "build_gram_K0",
    "fit",
]


@dataclass
class DerivativeDataset:
    """Gradient observations: row i of ``targets`` is the prescribed value of
    the gradient at ``points[i]``; ``sigma_p`` is the observation noise std.
    """

    points: np.ndarray
    targets: np.ndarray
    sigma_p: float = 0.0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.points.shape[0] < 1:
            raise DataError("dataset needs at least one point")
        if self.targets.shape != self.points.shape:
            raise DimensionError("targets", self.points.shape, self.targets.shape)
        if not np.all(np.isfinite(self.targets)):
            raise DataError("targets contain NaN or infinite entries")
        if not np.all(np.isfinite(self.points)):
            raise DataError("points contain NaN or infinite entries")
        if self.sigma_p < 0.0:
            raise DataError("sigma_p must be nonnegative")

    @property
    def dim(self):
        return self.points.shape[1]

    def stacked_targets(self):
        """Targets stacked block-wise into a vector of length n*N."""
        return self.targets.reshape(-1)


def build_gram_K0(kernel: Kernel, points):
    """Block Gram matrix of cross-second kernel derivatives.

    Block (i, j) of the returned (nN, nN) matrix is the cross Hessian of the
    kernel at (points[i], points[j]); the result is symmetric by
    construction.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[0] < 1:
        raise DataError("points must be non-empty")
    if X.shape[1] != kernel.dim:
        raise DimensionError("points", f"(*, {kernel.dim})", X.shape)
    blocks = kernel.hess_cross_outer(X, X)  # (N, N, n, n)
    N, _, n, _ = blocks.shape
    K = blocks.transpose(0, 2, 1, 3).reshape(N * n, N * n)
    return 0.5 * (K + K.T)


class DerivativeController:
    """A fitted feedback law u(x) with closed-form gradient.

    The law is the GP posterior mean given gradient observations (weights
    ``weights``), minus a stored offset so that the control vanishes at a
    designated equilibrium.
    """

    def __init__(self, kernel, points, weights, offset=0.0, offset_point=None,
                 metric=None, diagnostics=None):
        self.kernel = kernel
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        n = self.kernel.dim
        if self.weights.shape[0] != self.points.shape[0] * n:
            raise DimensionError("weights", self.points.shape[0] * n,
                                 self.weights.shape[0])
        self.offset = float(offset)
        self.offset_point = (None if offset_point is None
                             else np.asarray(offset_point, dtype=float).reshape(-1))
        self.metric = None if metric is None else np.asarray(metric, dtype=float)
        self.diagnostics = dict(diagnostics or {})
        self._terms = kernel.contraction_terms(self.points, self.weights)

    # -- evaluation ----------------------------------------------------

    def _raw_batch(self, X):
        """Law values before the offset at a checked stack X."""
        return self.kernel._contract(X, self._terms)

    def control_batch(self, X):
        """Control values at a stack of states, shape (B,)."""
        X = self.kernel._check_stack(X, "x")
        if X.shape[0] <= BLOCK:
            return self._raw_batch(X) - self.offset
        return blockwise(self._raw_batch, X) - self.offset

    def control_grad_batch(self, X):
        """Control gradients (rows) at a stack of states, shape (B, n)."""
        return blockwise(self._grad_batch, self.kernel._check_stack(X, "x"))

    def _grad_batch(self, X):
        n = self.kernel.dim
        H = self.kernel.hess_cross_outer(X, self.points)  # (B, N, n, n)
        return np.einsum("bNij,Nj->bi", H, self.weights.reshape(-1, n))

    # -- equilibrium handling -------------------------------------------

    def with_offset_at(self, x_star):
        """Return a copy whose control is exactly zero at ``x_star``.

        Shifting by a constant leaves the gradient (hence the certificate)
        untouched.
        """
        x_star = self.kernel._check_stack(np.reshape(x_star, (1, -1)),
                                          "x_star")
        raw = float(self._raw_batch(x_star)[0])
        return DerivativeController(
            self.kernel, self.points, self.weights, offset=raw,
            offset_point=x_star[0], metric=self.metric,
            diagnostics=self.diagnostics)

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        out = {
            "kernel": self.kernel.to_dict(),
            "points": [[float(v) for v in row] for row in self.points],
            "weights": [float(v) for v in self.weights],
            "offset": self.offset,
        }
        if self.offset_point is not None:
            out["offset_point"] = [float(v) for v in self.offset_point]
        if self.metric is not None:
            out["metric"] = [[float(v) for v in row] for row in self.metric]
        return out

    @classmethod
    def from_dict(cls, data):
        if "value_points" in data or "value_weights" in data:
            raise ValueError("value observations are not supported; the law "
                             "is conditioned on gradient data only")
        return cls(
            Kernel.from_dict(data["kernel"]),
            np.asarray(data["points"], dtype=float),
            np.asarray(data["weights"], dtype=float),
            offset=data.get("offset", 0.0),
            offset_point=data.get("offset_point"),
            metric=(np.asarray(data["metric"], dtype=float)
                    if data.get("metric") is not None else None),
        )


def fit(kernel: Kernel, dataset: DerivativeDataset, jitter=None):
    """Fit a controller to gradient data.

    Solves ``(K0 + sigma_p^2 I) h = Y`` through a symmetric factorization;
    jitter is added only if the factorization fails (default scale
    ``1e-10 * trace(K0) / (nN)``).  With ``sigma_p == 0`` and K0 positive
    definite the fitted gradient interpolates the targets exactly.
    """
    if dataset.dim != kernel.dim:
        raise DimensionError("dataset", f"dim {kernel.dim}", f"dim {dataset.dim}")
    K0 = build_gram_K0(kernel, dataset.points)
    A = K0 + dataset.sigma_p ** 2 * np.eye(K0.shape[0])
    y = dataset.stacked_targets()
    try:
        L, used = chol_with_jitter(A, jitter=jitter)
    except FactorizationError as exc:
        raise FactorizationError(
            f"gradient Gram factorization failed ({exc}); pass a jitter or "
            "use sigma_p > 0") from exc
    h = cho_solve((L, True), y)
    resid = float(np.linalg.norm(A @ h - y))
    scale = 1.0 + float(np.linalg.norm(y))
    diagnostics = {"jitter_used": used, "residual": resid}
    if resid > 1e-6 * scale:
        raise FactorizationError(
            f"weight solve residual {resid:.3e} too large; the Gram matrix "
            "is badly conditioned, add jitter or sigma_p")
    return DerivativeController(kernel, dataset.points, h,
                                diagnostics=diagnostics)
