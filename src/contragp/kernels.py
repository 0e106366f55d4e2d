"""Positive-definite kernels with analytic first and cross-second derivatives.

Every Gaussian-process computation in this package reduces to evaluations of
a kernel k(x, x'), the row vector dk/dx', and the cross Hessian d^2k/dx dx'.
All three are implemented in closed form per kernel family; finite
differences appear only in the test suite.  The length-scale matrix is kept
as a Cholesky factor and its inverse, so whitening pair differences is one
matrix product.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import DataError, DimensionError

FAMILIES = ("squared-exponential", "linear", "polynomial")


class Kernel:
    """A smooth positive-definite kernel with closed-form derivatives.

    Parameters
    ----------
    family : str
        One of ``"squared-exponential"`` (default), ``"linear"``,
        ``"polynomial"``.
    beta : float
        Output scale, must be positive.
    sigma : (n, n) array_like, optional
        Symmetric positive-definite length-scale matrix.  Defaults to the
        identity of size ``dim``.
    dim : int, optional
        Input dimension; required when ``sigma`` is omitted.
    degree : int, optional
        Degree of the polynomial family (required there, ignored elsewhere).
    """

    def __init__(self, family="squared-exponential", beta=1.0, sigma=None,
                 dim=None, degree=None):
        if family not in FAMILIES:
            raise DataError(f"unknown kernel family '{family}'")
        beta = float(beta)
        if not beta > 0.0:
            raise DataError(f"beta must be positive, got {beta}")
        if sigma is None:
            if dim is None:
                raise DataError("either sigma or dim must be given")
            sigma = np.eye(int(dim))
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DimensionError("sigma", "square matrix", sigma.shape)
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(sigma).max())):
            raise DataError("sigma must be symmetric")
        try:
            # lower Cholesky factor of the length-scale matrix
            chol = cholesky(sigma, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own
            raise DataError("sigma must be positive definite") from exc
        except Exception as exc:
            raise DataError("sigma must be positive definite") from exc
        if family == "polynomial":
            if degree is None or int(degree) < 1:
                raise DataError("polynomial family requires a positive integer degree")
            degree = int(degree)
        else:
            degree = None

        self.family = family
        self.beta = beta
        self.sigma = sigma
        self.degree = degree
        self.dim = sigma.shape[0]
        self._chol = chol
        self._sigma_inv = cho_solve((chol, True), np.eye(self.dim))
        self._chol_inv = solve_triangular(chol, np.eye(self.dim), lower=True)

    # ------------------------------------------------------------------
    # helpers

    def _check_point(self, x, name):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionError(name, f"length {self.dim}", f"length {x.shape[0]}")
        return x

    def _check_stack(self, X, name):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise DimensionError(name, f"(*, {self.dim})", X.shape)
        return X

    def _whiten_diffs(self, X, Y, weighted=True):
        """Return (D, W, q) for all pairs: D = x_i - y_j, W = Sigma^{-1} D
        (None unless ``weighted``), q = D^T Sigma^{-1} D."""
        D = X[:, None, :] - Y[None, :, :]
        half = D @ self._chol_inv.T
        W = D @ self._sigma_inv if weighted else None
        return D, W, np.sum(half * half, axis=-1)

    # ------------------------------------------------------------------
    # batched evaluations; element [i, j] pairs X[i] with Y[j]

    def value_outer(self, X, Y):
        """Kernel matrix, shape (N, M)."""
        X = self._check_stack(X, "x")
        Y = self._check_stack(Y, "x_prime")
        if self.family == "squared-exponential":
            _, _, q = self._whiten_diffs(X, Y, weighted=False)
            return self.beta * np.exp(-0.5 * q)
        q = X @ self._sigma_inv @ Y.T
        if self.family == "linear":
            return self.beta * q
        return self.beta * (q + 1.0) ** self.degree

    def grad_x2_outer(self, X, Y):
        """Rows dk(x_i, y_j)/dy_j, shape (N, M, n)."""
        X = self._check_stack(X, "x")
        Y = self._check_stack(Y, "x_prime")
        if self.family == "squared-exponential":
            _, W, q = self._whiten_diffs(X, Y)
            k = self.beta * np.exp(-0.5 * q)
            return k[:, :, None] * W
        SX = X @ self._sigma_inv
        if self.family == "linear":
            return np.broadcast_to(self.beta * SX[:, None, :],
                                   (X.shape[0], Y.shape[0], self.dim)).copy()
        q = X @ self._sigma_inv @ Y.T
        fac = self.beta * self.degree * (q + 1.0) ** (self.degree - 1)
        return fac[:, :, None] * SX[:, None, :]

    def hess_cross_outer(self, X, Y):
        """Cross Hessians d^2 k(x_i, y_j)/dx dy, shape (N, M, n, n)."""
        X = self._check_stack(X, "x")
        Y = self._check_stack(Y, "x_prime")
        S = self._sigma_inv
        if self.family == "squared-exponential":
            _, W, q = self._whiten_diffs(X, Y)
            k = self.beta * np.exp(-0.5 * q)
            outer = W[:, :, :, None] * W[:, :, None, :]
            return k[:, :, None, None] * (S[None, None] - outer)
        if self.family == "linear":
            return np.broadcast_to(self.beta * S[None, None],
                                   (X.shape[0], Y.shape[0], self.dim, self.dim)).copy()
        q = X @ S @ Y.T
        SX = X @ S
        SY = Y @ S
        d = self.degree
        lead = self.beta * d * (d - 1) * (q + 1.0) ** (d - 2) if d >= 2 else 0.0
        cross = (np.asarray(lead)[:, :, None, None]
                 * SY[None, :, :, None] * SX[:, None, None, :]) if d >= 2 else 0.0
        iso = self.beta * d * ((q + 1.0) ** (d - 1))[:, :, None, None] * S[None, None]
        return cross + iso

    # ------------------------------------------------------------------
    # single-pair evaluations

    def value(self, x, x_prime):
        """k(x, x')."""
        x = self._check_point(x, "x")
        y = self._check_point(x_prime, "x_prime")
        return float(self.value_outer(x[None, :], y[None, :])[0, 0])

    def grad_x2(self, x, x_prime):
        """Row vector dk(x, x')/dx'."""
        x = self._check_point(x, "x")
        y = self._check_point(x_prime, "x_prime")
        return self.grad_x2_outer(x[None, :], y[None, :])[0, 0]

    def grad_x1(self, x, x_prime):
        """Row vector dk(x, x')/dx; equals grad_x2 with swapped arguments
        because k is symmetric."""
        return self.grad_x2(x_prime, x)

    def hess_cross(self, x, x_prime):
        """Matrix d^2 k(x, x')/dx dx'."""
        x = self._check_point(x, "x")
        y = self._check_point(x_prime, "x_prime")
        return self.hess_cross_outer(x[None, :], y[None, :])[0, 0]

    def diag_value_gradient(self, x):
        """d/dx of k(x, x); zero for stationary families."""
        x = self._check_point(x, "x")
        if self.family == "squared-exponential":
            return np.zeros(self.dim)
        Sx = self._sigma_inv @ x
        if self.family == "linear":
            return 2.0 * self.beta * Sx
        q = float(x @ Sx)
        return 2.0 * self.beta * self.degree * (q + 1.0) ** (self.degree - 1) * Sx

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self):
        out = {
            "family": self.family,
            "beta": self.beta,
            "sigma": [[float(v) for v in row] for row in self.sigma],
        }
        if self.degree is not None:
            out["degree"] = self.degree
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(family=data["family"], beta=data["beta"],
                   sigma=np.asarray(data["sigma"], dtype=float),
                   degree=data.get("degree"))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Kernel(family={self.family!r}, beta={self.beta}, "
                f"dim={self.dim}, degree={self.degree})")
