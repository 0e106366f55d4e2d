"""The squared-exponential kernel with analytic first and cross-second
derivatives.

Every Gaussian-process computation in this package, the law conditioned on
gradient data and the learned drift alike, reduces to evaluations of the
squared-exponential (SE) kernel

    k(x, x') = beta exp(-(x - x')^T Sigma^{-1} (x - x') / 2),

the row vector dk/dx', and the cross Hessian d^2k/dx dx' (Rasmussen &
Williams 2006, sections 4.2 and 9.4).  All three are in closed form; finite
differences appear only in the test suite.  The length-scale matrix Sigma is
kept as a Cholesky factor and its inverse, so whitening pair differences is
one matrix product.  Pair differences are laid out (n, N * M), pairs last,
so each product and reduction runs along the pairs; the results are shaped
back to C-ordered (N, M[, n[, n]]) arrays.  The kernel is stationary, so at
coincident pairs k(x, x) = beta and d^2k/dx dx' = beta Sigma^{-1}.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError

FAMILIES = ("squared-exponential",)


class Kernel:
    """The squared-exponential kernel with closed-form derivatives.

    Parameters
    ----------
    family : str
        ``"squared-exponential"``, the one family; kept so that the config
        and the artifacts name it.
    beta : float
        Output scale, must be positive and finite.
    sigma : (n, n) array_like, optional
        Symmetric positive-definite length-scale matrix.  Defaults to the
        identity of size ``dim``.
    dim : int, optional
        Input dimension; required when ``sigma`` is omitted.
    """

    def __init__(self, family="squared-exponential", beta=1.0, sigma=None,
                 dim=None):
        if family not in FAMILIES:
            raise DataError(f"unknown kernel family '{family}'; the kernel "
                            f"is squared-exponential")
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

        self.family = family
        self.beta = beta
        self.sigma = sigma
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

    def _pairs(self, X, Y, weighted=True):
        """(W, q) for every row of X against every row of Y, leading axes
        (N, M): W = Sigma^{-1} D (None unless ``weighted``), a view of the
        pairs-last layout, and q as in :meth:`_diffs`."""
        X = self._check_stack(X, "x")
        Y = self._check_stack(Y, "x_prime")
        D, q = self._diffs(X, Y.T)
        shape = (X.shape[0], Y.shape[0])
        W = ((self._sigma_inv.T @ D).T.reshape(shape + (self.dim,))
             if weighted else None)
        return W, q.reshape(shape)

    def _value(self, q):
        return self.beta * np.exp(-0.5 * q)

    # ------------------------------------------------------------------
    # batched evaluations; element [i, j] pairs X[i] with Y[j]

    def value_outer(self, X, Y):
        """Kernel matrix, shape (N, M)."""
        return self._value(self._pairs(X, Y, weighted=False)[1])

    def grad_x2_outer(self, X, Y):
        """Rows dk(x_i, y_j)/dy_j = k Sigma^{-1} (x_i - y_j), shape
        (N, M, n)."""
        W, q = self._pairs(X, Y)
        # C order: callers' matmul and einsum bits hang on it
        return np.multiply(self._value(q)[..., None], W, order="C")

    def hess_cross_outer(self, X, Y):
        """Cross Hessians d^2 k(x_i, y_j)/dx dy = k (Sigma^{-1} - w w^T)
        with w = Sigma^{-1} (x_i - y_j), shape (N, M, n, n)."""
        W, q = self._pairs(X, Y)
        W = np.ascontiguousarray(W)  # C-ordered (N, M, n, n) products
        outer = W[..., :, None] * W[..., None, :]
        return self._value(q)[..., None, None] * (self._sigma_inv - outer)

    # ------------------------------------------------------------------
    # contraction of the gradient rows with one weight row per point

    def contraction_terms(self, Y, W):
        """Terms (YT, A, c) of :meth:`grad_x2_contract` for the points Y,
        shape (M, n), and their weight rows W, shape (M, n) or (M * n,):
        YT is Y^T laid out (n, M), a_j = Sigma^{-1} w_j and c_j = y_j . a_j."""
        Y = self._check_stack(Y, "x_prime")
        A = np.reshape(W, Y.shape) @ self._sigma_inv
        return np.ascontiguousarray(Y.T), A, np.sum(Y * A, axis=1)

    def grad_x2_contract(self, X, terms):
        """sum_j dk(x_i, y_j)/dy_j . w_j = sum_j k(x_i, y_j) (x_i . a_j - c_j)
        for every row of X, shape (N,), from the :meth:`contraction_terms`
        of (Y, W), without forming the (N, M, n) rows of
        :meth:`grad_x2_outer`.  q is taken from the differences x - y_j;
        expanding it would cancel near y_j."""
        return self._contract(self._check_stack(X, "x"), terms)

    def _contract(self, X, terms):
        """:meth:`grad_x2_contract` on a stack X already checked by
        :meth:`_check_stack`."""
        YT, A, c = terms
        XA = X @ A.T
        q = self._diffs(X, YT)[1].reshape(XA.shape)
        return (self._value(q) * (XA - c)).sum(axis=1)

    # ------------------------------------------------------------------
    # prior terms at coincident pairs (x, x) for a stack of states

    def diag_value(self, X):
        """k(x, x) = beta, shape (B,)."""
        return np.full(len(self._check_stack(X, "x")), self.beta)

    def diag_hess_cross(self, X):
        """d^2 k(x, x')/dx dx' at x' = x, beta Sigma^{-1}, shape (B, n, n)."""
        B = len(self._check_stack(X, "x"))
        return np.broadcast_to(self.beta * self._sigma_inv,
                               (B, self.dim, self.dim)).copy()

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self):
        return {
            "family": self.family,
            "beta": self.beta,
            "sigma": [[float(v) for v in row] for row in self.sigma],
        }

    @classmethod
    def from_dict(cls, data):
        """The kernel of :meth:`to_dict`.  Another family, such as the
        retired ``linear`` and ``polynomial`` ones, or a ``degree`` key
        raises a ValueError."""
        if data["family"] not in FAMILIES:
            raise ValueError(f"kernel family {data['family']!r} is no longer "
                             "supported; the kernel is squared-exponential")
        if "degree" in data:
            raise ValueError("a kernel 'degree' is no longer supported; the "
                             "kernel is squared-exponential")
        return cls(beta=data["beta"],
                   sigma=np.asarray(data["sigma"], dtype=float))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Kernel(beta={self.beta}, dim={self.dim})"
