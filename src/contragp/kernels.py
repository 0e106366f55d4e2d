"""Positive-definite kernels with analytic first and cross-second derivatives.

Every Gaussian-process computation in this package reduces to evaluations of
a kernel k(x, x'), the row vector dk/dx', and the cross Hessian d^2k/dx dx'.
All three are implemented in closed form per kernel family; finite
differences appear only in the test suite.  The length-scale matrix is kept
as a Cholesky factor and its inverse, so whitening pair differences is one
matrix product.  Squared-exponential pair differences are laid out
(n, N * M), pairs last, so each product and reduction runs along the pairs;
the results are shaped back to C-ordered (N, M[, n[, n]]) arrays.
"""

from __future__ import annotations

import numpy as np

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
        Output scale, must be positive and finite.
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
        if not 0.0 < beta < np.inf:
            raise DataError(f"beta must be positive and finite, got {beta}")
        if sigma is None:
            if dim is None:
                raise DataError("either sigma or dim must be given")
            sigma = np.eye(int(dim))
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DimensionError("sigma", "square matrix", sigma.shape)
        # numpy's factor carries a NaN or an inf through instead of failing
        if not np.isfinite(sigma).all():
            raise DataError("sigma must be finite")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(sigma).max())):
            raise DataError("sigma must be symmetric")
        try:
            # lower Cholesky factor of the length-scale matrix
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
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
        self._chol_inv = np.linalg.inv(chol)
        self._sigma_inv = self._chol_inv.T @ self._chol_inv

    # ------------------------------------------------------------------
    # helpers

    def _check_stack(self, X, name):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionError(name, f"(*, {self.dim})", X.shape)
        return X

    def _diffs(self, X, YT):
        """Differences D = x_i - y_j of the rows of X and the columns of YT,
        laid out (n, N * M) with the pairs last, and the whitened squared
        distances q = D^T Sigma^{-1} D, shape (N * M,)."""
        D = (X.T[:, :, None] - YT[:, None, :]).reshape(self.dim, -1)
        half = self._chol_inv @ D
        return D, np.einsum("ij,ij->j", half, half)

    def _pairs(self, X, Y=None, weighted=True):
        """Pair terms of the closed forms.  Every row of X meets every row of
        Y (leading axes (N, M)), or with Y None every row of X meets itself
        (leading axis (B,)).  Squared exponential: (W, q) with W =
        Sigma^{-1} D (None unless ``weighted``), a view of the pairs-last
        layout, and q as in :meth:`_diffs`; D = 0 on coincident pairs.
        Dot-product families: (SX, SY, q) with SX = Sigma^{-1} x,
        SY = Sigma^{-1} y and q = x^T Sigma^{-1} y."""
        X = self._check_stack(X, "x")
        if Y is not None:
            Y = self._check_stack(Y, "x_prime")
        if self.family == "squared-exponential":
            if Y is None:
                return np.zeros_like(X) if weighted else None, np.zeros(len(X))
            D, q = self._diffs(X, Y.T)
            shape = (X.shape[0], Y.shape[0])
            W = ((self._sigma_inv.T @ D).T.reshape(shape + (self.dim,))
                 if weighted else None)
            return W, q.reshape(shape)
        SX = X @ self._sigma_inv
        if Y is None:
            return SX, SX, np.sum(SX * X, axis=-1)
        return SX[:, None, :], (Y @ self._sigma_inv)[None, :, :], SX @ Y.T

    def _value(self, pairs):
        q = pairs[-1]
        if self.family == "squared-exponential":
            return self.beta * np.exp(-0.5 * q)
        if self.family == "linear":
            return self.beta * q
        return self.beta * (q + 1.0) ** self.degree

    def _slope(self, q):
        """d/dq of the dot-product profile beta * q or beta * (q + 1)^d."""
        if self.family == "linear":
            return self.beta
        return self.beta * self.degree * (q + 1.0) ** (self.degree - 1)

    def _grad_x2(self, pairs):
        if self.family == "squared-exponential":
            W, q = pairs  # C order: callers' matmul and einsum bits hang on it
            return np.multiply((self.beta * np.exp(-0.5 * q))[..., None], W,
                               order="C")
        SX, _, q = pairs
        if self.family == "linear":
            return np.broadcast_to(self.beta * SX, q.shape + (self.dim,)).copy()
        return self._slope(q)[..., None] * SX

    def _hess_cross(self, pairs):
        S = self._sigma_inv
        if self.family == "squared-exponential":
            W, q = pairs
            k = self.beta * np.exp(-0.5 * q)
            W = np.ascontiguousarray(W)  # C-ordered (N, M, n, n) products
            outer = W[..., :, None] * W[..., None, :]
            return k[..., None, None] * (S - outer)
        SX, SY, q = pairs
        if self.family == "linear":
            return np.broadcast_to(self.beta * S,
                                   q.shape + (self.dim, self.dim)).copy()
        d = self.degree
        cross = (self.beta * d * (d - 1) * (q + 1.0) ** (d - 2))[..., None, None] \
            * SY[..., :, None] * SX[..., None, :] if d >= 2 else 0.0
        iso = self.beta * d * ((q + 1.0) ** (d - 1))[..., None, None] * S
        return cross + iso

    # ------------------------------------------------------------------
    # batched evaluations; element [i, j] pairs X[i] with Y[j]

    def value_outer(self, X, Y):
        """Kernel matrix, shape (N, M)."""
        return self._value(self._pairs(X, Y, weighted=False))

    def grad_x2_outer(self, X, Y):
        """Rows dk(x_i, y_j)/dy_j, shape (N, M, n)."""
        return self._grad_x2(self._pairs(X, Y))

    def hess_cross_outer(self, X, Y):
        """Cross Hessians d^2 k(x_i, y_j)/dx dy, shape (N, M, n, n)."""
        return self._hess_cross(self._pairs(X, Y))

    # ------------------------------------------------------------------
    # contraction of the gradient rows with one weight row per point

    def contraction_terms(self, Y, W):
        """Terms (Y, YT, A, c) of :meth:`grad_x2_contract` for the points
        Y, shape (M, n), and their weight rows W, shape (M, n) or (M * n,):
        YT is Y^T laid out (n, M), a_j = Sigma^{-1} w_j and c_j = y_j . a_j."""
        Y = self._check_stack(Y, "x_prime")
        A = np.reshape(W, Y.shape) @ self._sigma_inv
        return Y, np.ascontiguousarray(Y.T), A, np.sum(Y * A, axis=1)

    def grad_x2_contract(self, X, terms):
        """sum_j dk(x_i, y_j)/dy_j . w_j for every row of X, shape (N,),
        from the :meth:`contraction_terms` of (Y, W), without forming the
        (N, M, n) rows of :meth:`grad_x2_outer`.

        Squared exponential: k(x, y_j) (x . a_j - c_j), with q taken from
        the differences x - y_j (expanding it would cancel near y_j).
        Dot-product families: k'(q_ij) (x . a_j) with q_ij = x^T Sigma^{-1} y_j.
        """
        return self._contract(self._check_stack(X, "x"), terms)

    def _contract(self, X, terms):
        """:meth:`grad_x2_contract` on a stack X already checked by
        :meth:`_check_stack`."""
        Y, YT, A, c = terms
        XA = X @ A.T
        if self.family != "squared-exponential":
            return (self._slope(X @ self._sigma_inv @ Y.T) * XA).sum(axis=1)
        q = self._diffs(X, YT)[1].reshape(XA.shape)
        return (self._value((q,)) * (XA - c)).sum(axis=1)

    # ------------------------------------------------------------------
    # prior terms at coincident pairs (x, x) for a stack of states

    def diag_value(self, X):
        """k(x, x), shape (B,)."""
        return self._value(self._pairs(X, weighted=False))

    def diag_hess_cross(self, X):
        """d^2 k(x, x')/dx dx' at x' = x, shape (B, n, n)."""
        return self._hess_cross(self._pairs(X))

    def diag_value_gradient(self, X):
        """d/dx of k(x, x), shape (B, n): twice dk(x, x')/dx' at x' = x,
        since k is symmetric; zero for stationary families."""
        return 2.0 * self._grad_x2(self._pairs(X))

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
