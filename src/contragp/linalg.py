"""Dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import FactorizationError


def symmetrize(A):
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (A + np.swapaxes(A, -1, -2))


JITTER_TRIES = 4

# states per kernel evaluation of a posterior mean, a law or their
# gradients: bounds the (B, N, ...) temporaries of large stacks
BLOCK = 256


def blockwise(fn, X):
    """``fn(X)`` evaluated on consecutive blocks of at most ``BLOCK`` rows
    of X and concatenated along the first axis."""
    if X.shape[0] <= BLOCK:
        return fn(X)
    return np.concatenate([fn(X[i:i + BLOCK])
                           for i in range(0, X.shape[0], BLOCK)])


def chol_with_jitter(A, jitter=None):
    """Lower Cholesky factor of A, adding diagonal jitter only on failure.

    Returns ``(L, jitter_used)``.  The starting jitter defaults to
    ``1e-10 * trace(A) / dim`` and escalates tenfold, ``JITTER_TRIES``
    jitters in all, before giving up with an advisory.
    """
    A = np.asarray(A, dtype=float)
    dim = A.shape[0]
    if dim == 0:
        return np.zeros((0, 0)), 0.0
    # numpy's factor carries a NaN through instead of failing
    if not np.isfinite(A).all():
        raise FactorizationError(
            "matrix has non-finite entries; jitter cannot help")
    try:
        return np.linalg.cholesky(A), 0.0
    except np.linalg.LinAlgError:
        pass
    if np.any(np.diag(A) <= 0.0):
        raise FactorizationError(
            "matrix is not positive definite (non-positive diagonal); "
            "jitter cannot help")
    if jitter is None:
        jitter = 1e-10 * float(np.trace(A)) / dim
    jitter = max(float(jitter), np.finfo(float).tiny)
    eye = np.eye(dim)
    for k in range(JITTER_TRIES):
        if k:
            jitter *= 10.0
        try:
            return np.linalg.cholesky(A + jitter * eye), jitter
        except np.linalg.LinAlgError:
            pass
    raise FactorizationError(
        f"Cholesky factorization failed even with jitter up to {jitter:.3e}; "
        "increase the jitter or check the conditioning of the Gram matrix")
