"""Dense symmetric linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky

from .errors import FactorizationError, NumericalFailureError


def symmetrize(A):
    return 0.5 * (A + A.T)


def eig_min_sym(A):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(np.asarray(A, dtype=float)))[0])


def chol_with_jitter(A, jitter=None, max_tries=4):
    """Lower Cholesky factor of A, adding diagonal jitter only on failure.

    Returns ``(L, jitter_used)``.  The starting jitter defaults to
    ``1e-10 * trace(A) / dim`` and escalates tenfold up to ``max_tries``
    times before giving up with an advisory.
    """
    A = np.asarray(A, dtype=float)
    dim = A.shape[0]
    if dim == 0:
        return np.zeros((0, 0)), 0.0
    try:
        return cholesky(A, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    except Exception:
        pass
    if np.any(np.diag(A) <= 0.0):
        raise FactorizationError(
            "matrix is not positive definite (non-positive diagonal); "
            "jitter cannot help")
    if jitter is None:
        jitter = 1e-10 * float(np.trace(A)) / dim
    jitter = max(float(jitter), np.finfo(float).tiny)
    eye = np.eye(dim)
    for k in range(max_tries):
        if k:
            jitter *= 10.0
        try:
            return cholesky(A + jitter * eye, lower=True), jitter
        except Exception:
            pass
    raise FactorizationError(
        f"Cholesky factorization failed even with jitter up to {jitter:.3e}; "
        "increase the jitter or check the conditioning of the Gram matrix")


def principal_sqrt_psd(A, clip=-1e-10):
    """Principal square root of a (numerically) PSD symmetric matrix.

    Eigenvalues within ``clip`` of zero are clipped to zero; anything more
    negative raises, since that indicates a genuinely indefinite input.
    """
    A = symmetrize(np.asarray(A, dtype=float))
    vals, vecs = np.linalg.eigh(A)
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    if vals.min(initial=0.0) < clip * scale:
        raise NumericalFailureError(
            f"matrix is not PSD within tolerance (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T
