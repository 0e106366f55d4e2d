"""Discrete-time control-affine system models and builtin benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError

__all__ = ["Box", "SystemModel", "grid_points", "boundary_states",
           "oscillator", "sine1d", "linear_system", "polynomial_system",
           "builtin_system"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: tuple
    hi: tuple

    @classmethod
    def make(cls, lo, hi):
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo) != len(hi):
            raise DimensionError("hi", len(lo), len(hi))
        if any(l >= h for l, h in zip(lo, hi)):
            raise DataError("box needs lo < hi on every axis")
        return cls(lo, hi)

    @property
    def dim(self):
        return len(self.lo)

    @property
    def lo_arr(self):
        return np.asarray(self.lo)

    @property
    def hi_arr(self):
        return np.asarray(self.hi)

    def contains_rows(self, X, tol=0.0):
        """Mask of the rows of X that lie in the box, shape (B,)."""
        X = np.atleast_2d(np.asarray(X))
        return np.all((X >= self.lo_arr - tol) & (X <= self.hi_arr + tol),
                      axis=1)

    def diameter(self):
        return float(np.linalg.norm(self.hi_arr - self.lo_arr))


def grid_points(box: Box, per_axis):
    """Uniform grid over a box, inclusive of the boundary; shape (G, n).

    ``per_axis`` may be an int or one count per axis; points are ordered
    with the first axis varying slowest.
    """
    counts = np.broadcast_to(np.asarray(per_axis, dtype=int), (box.dim,))
    if np.any(counts < 1):
        raise DataError("grid counts must be positive")
    axes = [np.linspace(box.lo[i], box.hi[i], counts[i]) for i in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def boundary_states(box: Box, count):
    """``count`` states equally spaced along the boundary of a 2-D box."""
    if box.dim != 2:
        raise DimensionError("box", "dimension 2", box.dim)
    lo, hi = box.lo_arr, box.hi_arr
    w, h = hi - lo
    perim = 2.0 * (w + h)
    out = []
    for k in range(count):
        s = perim * k / count
        if s < w:
            out.append([lo[0] + s, lo[1]])
        elif s < w + h:
            out.append([hi[0], lo[1] + (s - w)])
        elif s < 2 * w + h:
            out.append([hi[0] - (s - w - h), hi[1]])
        else:
            out.append([lo[0], hi[1] - (s - 2 * w - h)])
    return np.asarray(out)


class SystemModel:
    """x_{k+1} = f(x_k) + b(x_k) u_k with a known Jacobian of the drift.

    Every quantity is evaluated on a stack of states X of shape (B, n):
    ``drift(X)`` is (B, n) and ``drift_jacobian(X)`` is (B, n, n).  The
    input direction is either a constant vector ``b`` or an evaluator pair
    ``(b_fun, b_jac)`` mapping X to (B, n) and (B, n, n).  On construction
    the drift Jacobian and the input Jacobian are checked against central
    differences at a stack of deterministic probe states, and a declared
    equilibrium must actually be a fixed point of the drift.
    """

    def __init__(self, n, drift, drift_jacobian, b=None, b_fun=None,
                 b_jac=None, equilibrium=None, name=None, validate=True):
        self.n = int(n)
        self.drift = drift
        self.drift_jacobian = drift_jacobian
        self.name = name
        if (b is None) == (b_fun is None):
            raise DataError("provide exactly one of b or (b_fun, b_jac)")
        if b is not None:
            self.b = np.asarray(b, dtype=float).reshape(-1)
            if self.b.shape[0] != self.n:
                raise DimensionError("b", self.n, self.b.shape[0])
            self.b_fun = None
            self.b_jac = None
        else:
            if b_jac is None:
                raise DataError("b_fun requires b_jac")
            self.b = None
            self.b_fun = b_fun
            self.b_jac = b_jac
        self.equilibrium = (None if equilibrium is None
                            else np.asarray(equilibrium, dtype=float).reshape(-1))
        if validate:
            self._validate()

    @property
    def constant_input(self):
        return self.b is not None

    def input(self, X):
        """Input vectors b(x) at a stack of states, shape (B, n)."""
        if self.constant_input:
            return np.broadcast_to(self.b, X.shape)
        return np.asarray(self.b_fun(X), dtype=float)

    def input_jac(self, X):
        """Input Jacobians db(x) at a stack of states, shape (B, n, n)."""
        if self.constant_input:
            return np.zeros((X.shape[0], self.n, self.n))
        return np.asarray(self.b_jac(X), dtype=float)

    def step(self, X, U):
        """Next states f(x) + b(x) u at a stack of states (B, n) and inputs
        (B,), shape (B, n)."""
        X = np.asarray(X, dtype=float)
        U = np.asarray(U, dtype=float)
        b = self.b if self.constant_input else self.input(X)
        return self.drift(X) + b * U[:, None]

    def _probe_states(self):
        # the origin, then e_i and -e_i / 2 for each axis, then 3 random
        eye = np.eye(self.n)
        axes = np.stack([eye, -0.5 * eye], axis=1).reshape(-1, self.n)
        rng = np.random.default_rng(20240401)
        return np.vstack([np.zeros((1, self.n)), axes,
                          rng.uniform(-1.0, 1.0, size=(3, self.n))])

    def _validate(self):
        X = self._probe_states()
        K, n = X.shape
        # one stack holds every probe shifted by +-h along every axis
        h = 1e-6
        shifts = h * np.eye(n)
        Xs = np.concatenate([X[:, None, :] + shifts, X[:, None, :] - shifts]
                            ).reshape(-1, n)
        checks = [("drift_jacobian", self.drift, self.drift_jacobian)]
        if not self.constant_input:
            checks.append(("b_jac", self.b_fun, self.b_jac))
        for name, fun, jac in checks:
            J = np.asarray(jac(X), dtype=float)
            if J.shape != (K, n, n):
                raise DimensionError(f"{name}(X)", (K, n, n), J.shape)
            F = np.asarray(fun(Xs), dtype=float).reshape(2, K, n, n)
            fd = ((F[0] - F[1]) / (2 * h)).transpose(0, 2, 1)
            dev = np.abs(J - fd).max(axis=(1, 2))
            bad = dev > 1e-4 * (1.0 + np.abs(J).max(axis=(1, 2)))
            if np.any(bad):
                i = int(np.argmax(bad))
                raise DataError(
                    f"{name} disagrees with finite differences at {X[i]} "
                    f"(max deviation {dev[i]:.3e})")
        if self.equilibrium is not None:
            self.check_equilibrium(self.equilibrium)

    def check_equilibrium(self, x):
        """``x`` as a float vector, once it is checked to be a fixed point
        of the drift, |f(x) - x| <= 1e-8; a DataError otherwise."""
        x = np.asarray(x, dtype=float).reshape(-1)
        resid = np.linalg.norm(np.asarray(self.drift(x[None]))[0] - x)
        if not resid <= 1e-8:
            raise DataError(
                f"declared equilibrium is not a fixed point (|f(x*)-x*| = {resid:.3e})")
        return x


# ---------------------------------------------------------------------------
# builtin benchmark systems


def _osc_h(x1):
    return -x1 + x1 ** 3 - x1 ** 5 / 5.0 + x1 ** 7 / 105.0


def _osc_h_prime(x1):
    return -1.0 + 3.0 * x1 ** 2 - x1 ** 4 + x1 ** 6 / 15.0


def oscillator(dt=0.01):
    """Forward-Euler negative-resistance oscillator on R^2.

    f(x) = x + [x2, -x1 + h(x1) x2] dt with h a degree-7 odd polynomial,
    actuated through b = [0, 1] dt; the origin is a fixed point.
    """

    def drift(X):
        # the expressions of oscillator_f2, in its order: data.csv and the
        # rollouts depend on these bits
        x1, x2 = X[:, 0], X[:, 1]
        out = np.empty((X.shape[0], 2))
        out[:, 0] = x1 + x2 * dt
        out[:, 1] = x2 + dt * (-x1 + _osc_h(x1) * x2)
        return out

    def jac(X):
        x1, x2 = X[:, 0], X[:, 1]
        J = np.empty((X.shape[0], 2, 2))
        J[:, 0, 0] = 1.0
        J[:, 0, 1] = dt
        J[:, 1, 0] = dt * (-1.0 + _osc_h_prime(x1) * x2)
        J[:, 1, 1] = 1.0 + dt * _osc_h(x1)
        return J

    return SystemModel(2, drift, jac, b=np.array([0.0, 1.0]) * dt,
                       equilibrium=np.zeros(2), name="oscillator")


def oscillator_f2(X, dt=0.01):
    """Second drift component of the oscillator on a stack of states."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[:, 1] + dt * (-X[:, 0] + _osc_h(X[:, 0]) * X[:, 1])


def sine1d(dt=0.1):
    """Scalar benchmark f(x) = x + dt sin(x), b = dt; used for hull tests."""

    def drift(X):
        return X + dt * np.sin(X)

    def jac(X):
        return (1.0 + dt * np.cos(X))[:, :, None]

    return SystemModel(1, drift, jac, b=np.array([dt]),
                       equilibrium=np.zeros(1), name="sine1d")


def linear_system(A, b, name=None):
    """x_{k+1} = A x + b u."""
    A = np.asarray(A, dtype=float)

    def drift(X):
        return X @ A.T

    def jac(X):
        return np.broadcast_to(A, (X.shape[0],) + A.shape)

    return SystemModel(A.shape[0], drift, jac, b=b, name=name or "linear")


def _check_keys(node, prefix, required, optional=frozenset()):
    """Raise a ConfigError naming ``prefix + key`` for a required key
    missing from the object ``node`` or a key it should not have."""
    if not isinstance(node, dict):
        raise ConfigError(f"{prefix[:-1] or 'polynomial system spec'} must "
                          "be an object")
    for kind, keys in (("missing", required - set(node)),
                       ("unknown", set(node) - required - optional)):
        if keys:
            raise ConfigError(f"{kind} key '{prefix}{min(keys)}'")


def polynomial_system(spec):
    """Build a system from a polynomial coefficient description.

    ``spec`` maps ``n`` to the dimension, ``b`` to the input vector and
    ``rows`` to a list (one per component) of term lists; each term is
    ``{"exponents": [e1, ..., en], "coef": c}`` contributing
    ``c * prod_i x_i^{e_i}`` to that component of f; ``equilibrium`` is
    optional.  A missing or unknown key raises a ConfigError naming its
    path in the spec, e.g. ``rows[0][1].coeff``.
    """
    _check_keys(spec, "", {"n", "b", "rows"}, {"equilibrium"})
    try:
        n = int(spec["n"])
        rows = spec["rows"]
        b = np.asarray(spec["b"], dtype=float).reshape(-1)
    except TypeError as exc:
        raise ConfigError(f"polynomial system spec is malformed: {exc}") from exc
    if len(rows) != n or b.shape[0] != n:
        raise ConfigError("polynomial system spec has inconsistent dimensions")
    terms = []
    for i, row in enumerate(rows):
        parsed = []
        for j, term in enumerate(row):
            _check_keys(term, f"rows[{i}][{j}].", {"exponents", "coef"})
            expo = np.asarray(term["exponents"], dtype=int)
            if expo.shape != (n,) or np.any(expo < 0):
                raise ConfigError(f"bad exponents {term['exponents']} at "
                                  f"rows[{i}][{j}]")
            parsed.append((expo, float(term["coef"])))
        terms.append(parsed)

    def drift(X):
        out = np.zeros(X.shape)
        for i, row in enumerate(terms):
            for expo, coef in row:
                out[:, i] += coef * np.prod(X ** expo, axis=1)
        return out

    def jac(X):
        J = np.zeros((X.shape[0], n, n))
        for i, row in enumerate(terms):
            for expo, coef in row:
                for j in np.flatnonzero(expo):
                    de = expo.copy()
                    de[j] -= 1
                    J[:, i, j] += coef * expo[j] * np.prod(X ** de, axis=1)
        return J

    eq = spec.get("equilibrium")
    return SystemModel(n, drift, jac, b=b, equilibrium=eq, name="polynomial")


def builtin_system(name, **kwargs):
    registry = {"oscillator": oscillator, "sine1d": sine1d}
    if name not in registry:
        raise ConfigError(f"unknown builtin system '{name}' "
                          f"(available: {sorted(registry)})")
    return registry[name](**kwargs)
