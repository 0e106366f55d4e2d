"""Standard GP regression of unknown drift fields, component by component.

Each drift component is learned from noisy one-step data; posterior means,
their exact gradients, and the posterior covariances of both (values and
Jacobian rows) are available in closed form.  Components whose structure is
known exactly (for instance integrator rows of a discretization) can be
declared fixed and skip regression entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import DataError, DimensionError, FactorizationError
from .kernels import Kernel
from .linalg import chol_with_jitter, principal_sqrt_psd, symmetrize
from .systems import SystemModel

__all__ = ["DriftDataset", "FixedAffineComponent", "GPComponent",
           "DriftModel", "fit_drift", "fit_drift_with_input"]


@dataclass
class DriftDataset:
    """Training data: row j of ``targets`` holds the sampled next-state
    components at ``points[j]``; ``sigma_y`` is the per-component noise std
    (scalar broadcasts).  ``inputs`` holds applied inputs for the
    unknown-input-direction variant."""

    points: np.ndarray
    targets: np.ndarray
    sigma_y: np.ndarray | float = 0.0
    inputs: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.targets.shape[0] != self.points.shape[0]:
            raise DimensionError("targets", f"{self.points.shape[0]} rows",
                                 f"{self.targets.shape[0]} rows")
        if not np.all(np.isfinite(self.targets)):
            raise DataError("targets contain NaN or infinite entries")
        sy = np.asarray(self.sigma_y, dtype=float)
        self.sigma_y = np.broadcast_to(sy, (self.targets.shape[1],)).copy()
        if np.any(self.sigma_y < 0.0):
            raise DataError("sigma_y must be nonnegative")
        if self.inputs is not None:
            self.inputs = np.asarray(self.inputs, dtype=float).reshape(-1)
            if self.inputs.shape[0] != self.points.shape[0]:
                raise DimensionError("inputs", self.points.shape[0],
                                     self.inputs.shape[0])

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


class FixedAffineComponent:
    """Exactly known component f_i(x) = const + linear . x."""

    def __init__(self, linear, const=0.0):
        self.linear = np.asarray(linear, dtype=float).reshape(-1)
        self.const = float(const)

    fixed = True

    def mean(self, x):
        return self.const + float(self.linear @ np.asarray(x, dtype=float).reshape(-1))

    def mean_batch(self, X):
        return self.const + np.atleast_2d(X) @ self.linear

    def grad(self, x):
        return self.linear.copy()

    def value_variance(self, x):
        return 0.0

    def jac_variance(self, x):
        n = self.linear.shape[0]
        return np.zeros((n, n))

    def to_dict(self):
        return {"type": "fixed-affine", "const": self.const,
                "linear": [float(v) for v in self.linear]}


class GPComponent:
    """Posterior of one scalar drift component.

    ``gram_extra`` holds an additive Gram term for augmented kernels (the
    input-product term of the unknown-input-direction variant); posterior
    formulas below are evaluated at zero input, where that term drops out
    of all cross-covariances.
    """

    fixed = False

    def __init__(self, kernel: Kernel, points, y, sigma_y, gram_extra=None,
                 jitter=None):
        self.kernel = kernel
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.y = np.asarray(y, dtype=float).reshape(-1)
        self.sigma_y = float(sigma_y)
        N = self.points.shape[0]
        K = kernel.value_outer(self.points, self.points) if N else np.zeros((0, 0))
        if gram_extra is not None:
            K = K + gram_extra
        A = K + self.sigma_y ** 2 * np.eye(N)
        try:
            L, used = chol_with_jitter(A, jitter=jitter)
        except FactorizationError as exc:
            raise FactorizationError(
                f"drift Gram factorization failed ({exc}); add jitter or "
                "observation noise") from exc
        self._chol = L
        self.jitter_used = used
        self.weights = cho_solve((L, True), self.y) if N else np.zeros(0)

    def _kvec(self, x):
        """Column of prior covariances k(x^{(j)}, x)."""
        if self.points.shape[0] == 0:
            return np.zeros(0)
        return self.kernel.value_outer(self.points, np.atleast_2d(x))[:, 0]

    def _kvec_grad(self, x):
        """(N, n) rows d k(x^{(j)}, x) / dx."""
        if self.points.shape[0] == 0:
            return np.zeros((0, self.kernel.dim))
        return self.kernel.grad_x2_outer(self.points, np.atleast_2d(x))[:, 0, :]

    def mean(self, x):
        return float(self._kvec(x) @ self.weights)

    def mean_batch(self, X):
        X = np.atleast_2d(X)
        if self.points.shape[0] == 0:
            return np.zeros(X.shape[0])
        return self.kernel.value_outer(X, self.points) @ self.weights

    def grad(self, x):
        return self._kvec_grad(x).T @ self.weights

    def _solve(self, B):
        if self.points.shape[0] == 0:
            return np.zeros_like(B)
        return cho_solve((self._chol, True), B)

    def value_variance(self, x):
        kv = self._kvec(x)
        v = self.kernel.value(x, x) - float(kv @ self._solve(kv))
        return max(v, 0.0)

    def jac_variance(self, x):
        """Posterior covariance of the gradient row at x, symmetrized."""
        x = np.asarray(x, dtype=float).reshape(-1)
        # columns of cross covariances d k(x, x^{(j)}) / dx, shape (n, N)
        Gx = np.stack([self.kernel.grad_x1(x, xj) for xj in self.points], axis=1) \
            if self.points.shape[0] else np.zeros((self.kernel.dim, 0))
        prior = self.kernel.hess_cross(x, x)
        V = prior - Gx @ self._solve(Gx.T)
        return symmetrize(V)

    def variance_total_gradient(self, x):
        """d/dx of the posterior value variance v(x, x)."""
        kv = self._kvec(x)
        alpha = self._solve(kv)
        dkv = self._kvec_grad(x)  # (N, n)
        return self.kernel.diag_value_gradient(x) - 2.0 * (alpha @ dkv)

    def to_dict(self):
        return {"type": "gp", "kernel": self.kernel.to_dict(),
                "weights": [float(v) for v in self.weights],
                "sigma_y": self.sigma_y}


class DriftModel:
    """Per-component posteriors of a learned drift field."""

    def __init__(self, points, components, inputs=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.components = list(components)
        self.inputs = None if inputs is None else np.asarray(inputs, dtype=float)
        self.n = len(self.components)

    def mean(self, x):
        return np.array([c.mean(x) for c in self.components])

    def jacobian(self, x):
        return np.stack([c.grad(x) for c in self.components])

    def value_std(self, x):
        return np.array([np.sqrt(c.value_variance(x)) for c in self.components])

    def variances(self, x):
        """Per component: (sigma_i(x), principal sqrt of the Jacobian-row
        covariance)."""
        out = []
        for c in self.components:
            sd = float(np.sqrt(c.value_variance(x)))
            out.append((sd, principal_sqrt_psd(c.jac_variance(x))))
        return out

    def jac_row_variance(self, i, x):
        return self.components[i].jac_variance(x)

    def as_system_model(self, b=None, b_fun=None, b_jac=None, equilibrium=None):
        """Wrap the posterior mean field as a SystemModel for synthesis."""
        return SystemModel(self.n, self.mean, self.jacobian, b=b, b_fun=b_fun,
                           b_jac=b_jac, equilibrium=equilibrium,
                           name="learned-drift", validate=False)

    def to_dict(self):
        out = {
            "points": [[float(v) for v in row] for row in self.points],
            "components": [c.to_dict() for c in self.components],
        }
        if self.inputs is not None:
            out["inputs"] = [float(v) for v in self.inputs]
        return out

    @classmethod
    def from_dict(cls, data):
        points = np.asarray(data["points"], dtype=float)
        inputs = (np.asarray(data["inputs"], dtype=float)
                  if data.get("inputs") is not None else None)
        gram_extra = np.outer(inputs, inputs) if inputs is not None else None
        comps = []
        for cd in data["components"]:
            if cd["type"] == "fixed-affine":
                comps.append(FixedAffineComponent(cd["linear"], cd["const"]))
            else:
                comp = GPComponent(Kernel.from_dict(cd["kernel"]), points,
                                   np.zeros(points.shape[0]), cd["sigma_y"],
                                   gram_extra=gram_extra)
                comp.weights = np.asarray(cd["weights"], dtype=float)
                comps.append(comp)
        return cls(points, comps, inputs=inputs)


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


def fit_drift_with_input(dataset: DriftDataset, kernels, fixed=None):
    """Variant for unknown input direction: the prior covariance gains a
    product term in the applied inputs, so the posterior mean is affine in
    the input.  Returns ``(model_at_zero_input, input_gains)`` where entry i
    of the gains is the input coefficient of component i."""
    if dataset.inputs is None:
        raise DataError("dataset has no inputs")
    fixed = dict(fixed or {})
    n_out = dataset.targets.shape[1]
    kernels = _broadcast_kernels(kernels, n_out)
    gram_extra = np.outer(dataset.inputs, dataset.inputs)
    comps = []
    gains = np.zeros(n_out)
    for i in range(n_out):
        if i in fixed:
            comps.append(fixed[i])
        else:
            comp = GPComponent(kernels[i], dataset.points, dataset.targets[:, i],
                               dataset.sigma_y[i], gram_extra=gram_extra)
            comps.append(comp)
            gains[i] = float(dataset.inputs @ comp.weights)
    return DriftModel(dataset.points, comps, inputs=dataset.inputs), gains


def _broadcast_kernels(kernels, n_out):
    if isinstance(kernels, Kernel):
        return [kernels] * n_out
    kernels = list(kernels)
    if len(kernels) != n_out:
        raise DimensionError("kernels", n_out, len(kernels))
    return kernels
