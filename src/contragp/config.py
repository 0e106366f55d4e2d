"""Pipeline configuration: a versioned JSON schema parsed once, up front.

``PipelineConfig`` is the only reader of a config dict.  Its constructor
reads every key the package uses through one helper that applies the key's
default, converts the value and checks its range and its relation to other
keys; the commands read the resulting attributes.  A malformed value, a
missing required key and any key the constructor did not read raise a
``ConfigError`` that names the key, so no command starts computing against
a half-checked config.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial

import numpy as np

from .drift_gp import FixedAffineComponent
from .errors import ConfigError, ContragpError
from .kernels import Kernel
from .systems import Box, boundary_states, builtin_system, polynomial_system

__all__ = ["PipelineConfig", "load_config", "read_config",
           "default_oscillator_config", "default_sine1d_config"]

SCHEMA_VERSION = 1
MODES = ("two-step", "joint", "polytopic")


def default_oscillator_config():
    """Reproduction defaults for the 2-D oscillator benchmark.

    The metric bound rho is 10 rather than the generic API default: margin
    maximization drives the metric to the bound, and the grid-level
    certificate only survives interpolation between the 49 design points
    when the metric conditioning stays moderate.
    """
    return {
        "version": SCHEMA_VERSION,
        "system": {"builtin": "oscillator", "dt": 0.01,
                   "equilibrium": [0.0, 0.0]},
        "domain": {"model": [[-3.0, 3.0], [-3.0, 3.0]],
                   "control": [[-2.0, 2.0], [-2.0, 2.0]]},
        "grids": {"model_points_per_axis": 11,
                  "control_points_per_axis": 7,
                  "verify_resolution": 41},
        "kernel": {"family": "squared-exponential", "beta": 1.0},
        "noise": {"sigma_y": [0.0, 0.01], "sigma_p": 0.0},
        "solver": {"rho": 10.0},
        "mode": "two-step",
        "synthesis": {"model_source": "learned"},
        "learn": {"fixed_rows": {"0": {"linear": [1.0, 0.01], "const": 0.0}}},
        "stochastic": {"moment_check": False, "chebyshev_c": 40.0},
        "sim": {"horizon": 10000, "initial_states": "boundary-16",
                "baseline": True, "baseline_gain": [-49.8, 40.6]},
        "seeds": {"data": 7},
        "emit_svg": False,
    }


def default_sine1d_config():
    """Desk-scale scalar benchmark for the hull-certified route."""
    return {
        "version": SCHEMA_VERSION,
        "system": {"builtin": "sine1d", "dt": 0.1, "equilibrium": [0.0]},
        "domain": {"model": [[0.0, math.pi]], "control": [[0.0, math.pi]]},
        "grids": {"model_points_per_axis": 9,
                  "control_points_per_axis": 4,
                  "verify_resolution": 101},
        "kernel": {"family": "squared-exponential", "beta": 1.0},
        "noise": {"sigma_y": [0.01], "sigma_p": 0.0},
        "solver": {"rho": 10.0},
        "mode": "polytopic",
        "polytope": {"subdivisions": 4, "inflation": 0.1,
                     "samples_per_axis": 5},
        "synthesis": {"model_source": "analytic"},
        "learn": {"fixed_rows": {}},
        "stochastic": {"moment_check": False, "chebyshev_c": 40.0},
        "sim": {"horizon": 200, "initial_states": [[3.0], [2.0], [0.5]],
                "baseline": False},
        "seeds": {"data": 7},
        "emit_svg": False,
    }


# -- value specs: (conversion, check, what a good value is) ----------------
# A conversion raises TypeError, ValueError or LookupError on a bad value.

REQUIRED = object()
_floats = partial(np.asarray, dtype=float)


def _integer(value):
    """An integral number (or numeral) as an int; bools are refused."""
    if isinstance(value, bool) or float(value) != int(value):
        raise ValueError(value)
    return int(value)


def _box(value):
    spans = _floats(value)
    if spans.ndim != 2 or spans.shape[1] != 2:
        raise ValueError(value)
    return Box.make(spans[:, 0], spans[:, 1])


RAW = (None, None, "")
FLAG = (None, lambda v: isinstance(v, bool), "true or false")
COUNT = (_integer, lambda v: v >= 1, "a positive integer")
NONNEGATIVE = (float, lambda v: v >= 0.0, "a nonnegative number")


def _vector(n):
    return (_floats, lambda v: v.shape == (n,) and np.isfinite(v).all(),
            f"a list of {n} finite numbers")


def _fixed_rows(n):
    """Row index -> exactly known affine component."""
    def parse(value):
        rows = {}
        for key, spec in dict(value).items():
            row, linear = _integer(key), _floats(spec["linear"])
            if (not 0 <= row < n or linear.shape != (n,)
                    or not set(spec) <= {"linear", "const"}):
                raise ValueError(value)
            rows[row] = FixedAffineComponent(linear, spec.get("const", 0.0))
        return rows
    return (parse, None, f"an object mapping row indices below {n} to "
            "{'linear': [...], 'const': ...}")


def _initial_states(box, n):
    """``"boundary-<count>"`` on a 2-D box, or a list of n-vectors."""
    def parse(value):
        if isinstance(value, str):
            kind, _, count = value.partition("-")
            if kind != "boundary" or box.dim != 2 or _integer(count) < 1:
                raise ValueError(value)
            return boundary_states(box, _integer(count))
        X = np.atleast_2d(_floats(value))
        if X.ndim != 2 or X.shape[1] != n or not np.isfinite(X).all():
            raise ValueError(value)
        return X
    return (parse, None,
            f"'boundary-<count>' (2-D domains only) or a list of {n}-vectors")


class PipelineConfig:
    """A config dict, parsed.  ``raw`` keeps the dict as given, for echoing
    into artifacts; ``system`` carries the equilibrium where synthesis
    zeroes the law: ``system.equilibrium`` when configured, else the
    model's own."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        self.raw = data
        self._keys = set()      # dotted paths of the keys read
        self._sections = set()  # dotted paths of the objects holding them
        self._get("version", (None, lambda v: v == SCHEMA_VERSION,
                              str(SCHEMA_VERSION)))

        builtin = self._get("system.builtin", RAW, None)
        if builtin is None:
            system = self._get("system.polynomial", (
                polynomial_system, None, "a polynomial system description"))
        else:
            dt = self._get("system.dt", (float, lambda v: v > 0.0,
                                         "a positive number"), None)
            kwargs = {} if dt is None else {"dt": dt}
            system = self._check("system.builtin", builtin, (
                lambda name: builtin_system(name, **kwargs), None,
                "a builtin system name"))
        n = self.dim = system.n
        # a configured equilibrium replaces the model's own, if f(x*) = x*
        equilibrium = self._get("system.equilibrium", _vector(n), None)
        if equilibrium is not None:
            system.equilibrium = self._check("system.equilibrium", equilibrium,
                                             (system.check_equilibrium, None,
                                              "a fixed point of the drift"))
        self.equilibrium = system.equilibrium
        self.system = system

        box = (_box, lambda b: b.dim == n,
               f"{n} [lo, hi] pairs, one per dimension of the system")
        self.model_box = self._get("domain.model", box)
        self.control_box = self._get("domain.control", box)
        self.model_points = self._get("grids.model_points_per_axis", COUNT)
        self.control_points = self._get("grids.control_points_per_axis", COUNT)
        self.verify_resolution = self._get("grids.verify_resolution", COUNT)

        kernel = {key: self._get(f"kernel.{key}", RAW, default)
                  for key, default in (("family", "squared-exponential"),
                                       ("beta", 1.0), ("sigma", None),
                                       ("degree", None))}
        self.kernel = self._check("kernel", kernel, (
            lambda spec: Kernel(dim=n, **spec), None, "a kernel spec"))

        self.sigma_y = self._get("noise.sigma_y", (
            lambda v: np.broadcast_to(_floats(v), (n,)).copy(),
            lambda v: (v >= 0.0).all(),
            f"a nonnegative number or {n} of them"))
        # checked but inert: the law's weights are K0^{-1} g for any noise
        self._get("noise.sigma_p", NONNEGATIVE, 0.0)
        self.rho = self._get("solver.rho", (float, lambda v: v > 1.0,
                                            "a number above 1"))
        self.mode = self._get("mode", (None, lambda v: v in MODES,
                                       f"one of {MODES}"), "two-step")
        self.subdivisions = self._get("polytope.subdivisions", COUNT, 4)
        self.inflation = self._get("polytope.inflation", NONNEGATIVE, 0.1)
        self.samples_per_axis = self._get("polytope.samples_per_axis", COUNT, 5)
        self.model_source = self._get("synthesis.model_source", (
            None, lambda v: v in ("analytic", "learned"),
            "'analytic' or 'learned'"), "analytic")
        self.fixed_rows = self._get("learn.fixed_rows", _fixed_rows(n), {})

        self.moment_check = self._get("stochastic.moment_check", FLAG, False)
        self.chebyshev_inflate = self._get("stochastic.chebyshev_inflate",
                                           FLAG, False)
        self.chebyshev_c = self._get("stochastic.chebyshev_c", (
            float, lambda v: v > n, f"a number above {n}"), 40.0)
        for key in ("moment_check", "chebyshev_inflate"):
            if getattr(self, key) and self.model_source != "learned":
                raise ConfigError(f"stochastic.{key} needs the learned model "
                                  "source (synthesis.model_source)")

        self.horizon = self._get("sim.horizon", COUNT, 1000)
        self.initial_states = self._get(
            "sim.initial_states", _initial_states(self.control_box, n),
            "boundary-16" if n == 2 else REQUIRED)
        self.baseline = self._get("sim.baseline", FLAG, False)
        self.baseline_gain = self._get("sim.baseline_gain", _vector(n), None)
        if self.baseline and self.baseline_gain is None:
            raise ConfigError(f"sim.baseline needs sim.baseline_gain, "
                              f"{_vector(n)[2]}")
        self.seed = self._get("seeds.data", (_integer, lambda v: v >= 0,
                                             "a nonnegative integer"))
        self.emit_svg = self._get("emit_svg", FLAG, False)
        self._reject_unknown(self.raw, "")

    def _get(self, path, spec, default=REQUIRED):
        """The value of the dotted key ``path``, or ``default`` when the key
        is absent, converted and checked against ``spec`` by :meth:`_check`
        (a None default stays None).  Records the key as read."""
        self._keys.add(path)
        *sections, leaf = path.split(".")
        node = self.raw
        for depth in range(len(sections)):
            section = ".".join(sections[:depth + 1])
            self._sections.add(section)
            node = node.get(sections[depth], {})
            if not isinstance(node, dict):
                raise ConfigError(f"{section} must be an object")
        if leaf in node:
            return self._check(path, node[leaf], spec)
        if default is REQUIRED:
            raise ConfigError(f"config is missing '{path}'")
        return None if default is None else self._check(path, default, spec)

    @staticmethod
    def _check(path, value, spec):
        """``convert(value)`` for ``spec = (convert, check, need)``, if
        ``check`` accepts it (a None ``convert`` or ``check`` is skipped);
        any failure raises a ConfigError naming ``path``."""
        convert, check, need = spec
        try:
            out = value if convert is None else convert(value)
            good = check is None or bool(check(out))
        except (TypeError, ValueError, LookupError, OverflowError):
            good = False
        except ContragpError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not good:
            raise ConfigError(f"{path} must be {need}, got {value!r}")
        return out

    def _reject_unknown(self, node, prefix):
        for key, value in node.items():
            path = prefix + key
            if path in self._sections:
                self._reject_unknown(value, path + ".")
            elif path not in self._keys:
                raise ConfigError(f"unknown config key '{path}'")


def read_config(path):
    """The JSON value in the config file ``path``, not yet parsed."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_config(path):
    return PipelineConfig(read_config(path))
