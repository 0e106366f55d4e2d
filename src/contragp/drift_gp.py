"""Standard GP regression of unknown drift fields, component by component.

Each drift component is learned from noisy one-step data; posterior means,
their exact gradients, and the posterior covariances of both (values and
Jacobian rows) are available in closed form.  Components whose structure is
known exactly (for instance integrator rows of a discretization) can be
declared fixed and skip regression entirely.  Every posterior quantity is
evaluated on a stack of states, shape (B, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionError, FactorizationError
from .kernels import Kernel
from .linalg import blockwise, chol_with_jitter, symmetrize
from .systems import SystemModel

__all__ = ["DriftDataset", "FixedAffineComponent", "GPComponent",
           "DriftModel", "fit_drift"]


@dataclass
class DriftDataset:
    """Training data: row j of ``targets`` holds the sampled next-state
    components at ``points[j]``; ``sigma_y`` is the per-component noise std
    (scalar broadcasts)."""

    points: np.ndarray
    targets: np.ndarray
    sigma_y: np.ndarray | float = 0.0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.targets.shape[0] != self.points.shape[0]:
            raise DimensionError("targets", f"{self.points.shape[0]} rows",
                                 f"{self.targets.shape[0]} rows")
        if not np.all(np.isfinite(self.targets)):
            raise DataError("targets contain NaN or infinite entries")
        if not np.all(np.isfinite(self.points)):
            raise DataError("points contain NaN or infinite entries")
        sy = np.asarray(self.sigma_y, dtype=float)
        self.sigma_y = np.broadcast_to(sy, (self.targets.shape[1],)).copy()
        if np.any(self.sigma_y < 0.0):
            raise DataError("sigma_y must be nonnegative")

    @property
    def dim(self):
        return self.points.shape[1]


class FixedAffineComponent:
    """Exactly known component f_i(x) = const + linear . x."""

    def __init__(self, linear, const=0.0):
        self.linear = np.asarray(linear, dtype=float).reshape(-1)
        self.const = float(const)

    fixed = True

    def mean(self, X):
        """Values at a stack of states, shape (B,)."""
        return self.const + X @ self.linear

    def grad(self, X):
        """Gradient rows at a stack of states, shape (B, n)."""
        return np.broadcast_to(self.linear, X.shape)

    def value_variance(self, X):
        return np.zeros(X.shape[0])

    def jac_variance(self, X):
        return np.zeros(X.shape + X.shape[1:])

    def variance_total_gradient(self, X):
        return np.zeros(X.shape)

    def to_dict(self):
        return {"type": "fixed-affine", "const": self.const,
                "linear": [float(v) for v in self.linear]}


class GPComponent:
    """Posterior of one scalar drift component."""

    fixed = False

    def __init__(self, kernel: Kernel, points, y, sigma_y):
        self.kernel = kernel
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.y = np.asarray(y, dtype=float).reshape(-1)
        self.sigma_y = float(sigma_y)
        N = self.points.shape[0]
        A = (kernel.value_outer(self.points, self.points)
             + self.sigma_y ** 2 * np.eye(N))
        try:
            self._chol, used = chol_with_jitter(A)
        except FactorizationError as exc:
            raise FactorizationError(
                f"drift Gram factorization failed ({exc}); add observation "
                "noise (sigma_y)") from exc
        self.weights = np.linalg.solve(A + used * np.eye(N), self.y)

    @cached_property
    def _chol_inv(self):
        """The inverse Cholesky factor, once per model: every posterior
        variance is a product with it."""
        return np.linalg.inv(self._chol)

    def mean(self, X):
        """Posterior means at a stack of states, shape (B,)."""
        return blockwise(
            lambda Y: self.kernel.value_outer(Y, self.points) @ self.weights,
            X)

    def grad(self, X):
        """Gradient rows of the posterior mean at a stack of states, shape
        (B, n)."""
        # each state's (n, N) slice is the transpose of a C-ordered (N, n)
        # block, as a single-state evaluation lays it out, so every row
        # keeps the bits of its one-row call
        return blockwise(
            lambda Y: np.ascontiguousarray(self.kernel.grad_x2_outer(
                self.points, Y).transpose(1, 0, 2)).transpose(0, 2, 1)
            @ self.weights, X)

    def value_variance(self, X):
        """Posterior variances of the value at a stack of states, shape
        (B,)."""
        V = self._chol_inv @ self.kernel.value_outer(self.points, X)
        v = self.kernel.diag_value(X) - np.sum(V * V, axis=0)
        return np.maximum(v, 0.0)

    def jac_variance(self, X):
        """Posterior covariances of the gradient row at a stack of states,
        symmetrized, shape (B, n, n)."""
        # G[j, b] = d k(x_b, x^{(j)}) / dx_b
        G = self.kernel.grad_x2_outer(self.points, X)
        Z = (self._chol_inv @ G.reshape(G.shape[0], -1)).reshape(G.shape)
        V = self.kernel.diag_hess_cross(X) - np.einsum("jbk,jbl->bkl", Z, Z)
        return symmetrize(V)

    def variance_total_gradient(self, X):
        """d/dx of the posterior value variance v(x, x) at a stack of states,
        shape (B, n).  The prior term d/dx k(x, x) is zero, since the kernel
        is stationary."""
        Li = self._chol_inv
        alpha = Li.T @ (Li @ self.kernel.value_outer(self.points, X))
        G = self.kernel.grad_x2_outer(self.points, X)
        return -2.0 * np.einsum("jb,jbk->bk", alpha, G)

    def to_dict(self):
        return {"type": "gp", "kernel": self.kernel.to_dict(),
                "weights": [float(v) for v in self.weights],
                "sigma_y": self.sigma_y}


class DriftModel:
    """Per-component posteriors of a learned drift field."""

    def __init__(self, points, components):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.components = list(components)
        self.n = len(self.components)

    def mean(self, X):
        """Posterior mean field at a stack of states, shape (B, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.column_stack([c.mean(X) for c in self.components])

    def jacobian(self, X):
        """Jacobians of the posterior mean at a stack of states, shape
        (B, n, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([c.grad(X) for c in self.components], axis=1)

    def value_std(self, X):
        """Posterior std of every component at a stack of states, shape
        (B, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sqrt(np.column_stack([c.value_variance(X)
                                        for c in self.components]))

    def as_system_model(self, b, equilibrium=None):
        """Wrap the posterior mean field, with the constant input vector
        ``b``, as a SystemModel for synthesis."""
        return SystemModel(self.n, self.mean, self.jacobian, b=b,
                           equilibrium=equilibrium, name="learned-drift",
                           validate=False)

    def to_dict(self):
        return {
            "points": [[float(v) for v in row] for row in self.points],
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, data):
        """The model of :meth:`to_dict`.  The retired input-augmented
        format, with ``inputs``, raises a ValueError."""
        if "inputs" in data:
            raise ValueError("input-augmented drift models (with 'inputs') "
                             "are no longer supported")
        points = np.asarray(data["points"], dtype=float)
        comps = []
        for cd in data["components"]:
            if cd["type"] == "fixed-affine":
                comps.append(FixedAffineComponent(cd["linear"], cd["const"]))
            else:
                comp = GPComponent(Kernel.from_dict(cd["kernel"]), points,
                                   np.zeros(points.shape[0]), cd["sigma_y"])
                comp.weights = np.asarray(cd["weights"], dtype=float)
                comps.append(comp)
        return cls(points, comps)


def fit_drift(dataset: DriftDataset, kernels, fixed=None):
    """Fit per-component posteriors; ``fixed`` maps component indices to
    :class:`FixedAffineComponent` instances that skip regression."""
    fixed = dict(fixed or {})
    n_out = dataset.targets.shape[1]
    kernels = _broadcast_kernels(kernels, n_out)
    comps = []
    for i in range(n_out):
        if i in fixed:
            comps.append(fixed[i])
        else:
            comps.append(GPComponent(kernels[i], dataset.points,
                                     dataset.targets[:, i], dataset.sigma_y[i]))
    return DriftModel(dataset.points, comps)


def _broadcast_kernels(kernels, n_out):
    if isinstance(kernels, Kernel):
        return [kernels] * n_out
    kernels = list(kernels)
    if len(kernels) != n_out:
        raise DimensionError("kernels", n_out, len(kernels))
    return kernels
