"""Pipeline configuration: a versioned JSON schema validated up front.

Commands never start computing against a half-checked config; every field
is validated on load and builtin-system knowledge (exact rows, default
domains, seeds) is materialized into the config dict so artifacts fully
describe their provenance.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ConfigError
from .kernels import Kernel
from .systems import Box, builtin_system, polynomial_system

__all__ = ["PipelineConfig", "load_config", "default_oscillator_config",
           "default_sine1d_config"]

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
        "solver": {"rho": 10.0, "feas_tol": 1e-7, "width_scale": 1e-6},
        "mode": "two-step",
        "synthesis": {"model_source": "learned"},
        "learn": {"fixed_rows": {"0": {"linear": [1.0, 0.01], "const": 0.0}}},
        "stochastic": {"moment_check": False, "chebyshev_c": 40.0},
        "sim": {"horizon": 10000, "initial_states": "boundary-16",
                "baseline": True, "baseline_gain": [-49.8, 40.6]},
        "seeds": {"data": 7, "sim": 2024},
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
        "solver": {"rho": 10.0, "feas_tol": 1e-7, "width_scale": 1e-6},
        "mode": "polytopic",
        "polytope": {"subdivisions": 4, "inflation": 0.1,
                     "samples_per_axis": 5},
        "synthesis": {"model_source": "analytic"},
        "learn": {"fixed_rows": {}},
        "stochastic": {"moment_check": False, "chebyshev_c": 40.0},
        "sim": {"horizon": 200, "initial_states": [[3.0], [2.0], [0.5]],
                "baseline": False},
        "seeds": {"data": 7, "sim": 2024},
        "emit_svg": False,
    }


class PipelineConfig:
    """Validated view over a config dict."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if data.get("version") != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported config version {data.get('version')!r}; "
                f"expected {SCHEMA_VERSION}")
        self.data = data
        self._validate()

    # -- access helpers -------------------------------------------------

    def _req(self, *keys):
        node = self.data
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"config is missing '{'.'.join(keys)}'")
            node = node[k]
        return node

    def _opt(self, default, *keys):
        node = self.data
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                return default
            node = node[k]
        return node

    # -- validation ------------------------------------------------------

    def _validate(self):
        sys_spec = self._req("system")
        if "builtin" not in sys_spec and "polynomial" not in sys_spec:
            raise ConfigError("system must name a builtin or give a "
                              "polynomial description")
        system = self.system()  # constructs and therefore validates
        for key in ("model", "control"):
            if self.domain(key).dim != system.n:
                raise ConfigError(f"domain.{key} has dimension "
                                  f"{self.domain(key).dim} but the system "
                                  f"has {system.n} states")
        for key, val in self._req("grids").items():
            if int(val) < 1:
                raise ConfigError(f"grids.{key} must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.mode == "polytopic" and self.subdivisions < 1:
            raise ConfigError("polytope.subdivisions must be positive")
        sy = np.asarray(self._req("noise", "sigma_y"), dtype=float)
        if np.any(sy < 0.0):
            raise ConfigError("noise.sigma_y must be nonnegative")
        if float(self._opt(0.0, "noise", "sigma_p")) < 0.0:
            raise ConfigError("noise.sigma_p must be nonnegative")
        if float(self._req("solver", "rho")) <= 1.0:
            raise ConfigError("solver.rho must exceed 1")
        src = self._opt("analytic", "synthesis", "model_source")
        if src not in ("analytic", "learned"):
            raise ConfigError("synthesis.model_source must be 'analytic' "
                              "or 'learned'")
        self.kernel(dim=self.dim)
        horizon = int(self._opt(1000, "sim", "horizon"))
        if horizon < 1:
            raise ConfigError("sim.horizon must be positive")

    # -- materialized objects ---------------------------------------------

    def system(self):
        spec = self._req("system")
        if "builtin" in spec:
            kwargs = {}
            if "dt" in spec:
                kwargs["dt"] = float(spec["dt"])
            return builtin_system(spec["builtin"], **kwargs)
        return polynomial_system(spec["polynomial"])

    @property
    def dim(self):
        return len(self._req("domain", "model"))

    def domain(self, which):
        spans = self._req("domain", which)
        try:
            lo = [float(s[0]) for s in spans]
            hi = [float(s[1]) for s in spans]
        except (TypeError, IndexError) as exc:
            raise ConfigError(f"domain.{which} must be a list of "
                              "[lo, hi] pairs") from exc
        return Box.make(lo, hi)

    def kernel(self, dim=None):
        spec = dict(self._opt({}, "kernel"))
        family = spec.get("family", "squared-exponential")
        beta = float(spec.get("beta", 1.0))
        sigma = spec.get("sigma")
        degree = spec.get("degree")
        try:
            return Kernel(family=family, beta=beta,
                          sigma=None if sigma is None else np.asarray(sigma),
                          dim=dim if sigma is None else None, degree=degree)
        except Exception as exc:
            raise ConfigError(f"bad kernel spec: {exc}") from exc

    @property
    def mode(self):
        return self._opt("two-step", "mode")

    @property
    def subdivisions(self):
        """Cells per axis of the polytopic route."""
        return int(self._opt(4, "polytope", "subdivisions"))

    @property
    def model_source(self):
        return self._opt("analytic", "synthesis", "model_source")

    def sigma_y(self):
        return np.broadcast_to(
            np.asarray(self._req("noise", "sigma_y"), dtype=float),
            (self.dim,)).copy()

    @property
    def sigma_p(self):
        return float(self._opt(0.0, "noise", "sigma_p"))

    @property
    def rho(self):
        return float(self._req("solver", "rho"))

    def solver_config(self):
        from .lmi import SolverConfig
        return SolverConfig(
            feas_tol=float(self._opt(1e-7, "solver", "feas_tol")),
            width=float(self._opt(1e-6, "solver", "width_scale")) * self.rho)

    def fixed_rows(self):
        from .drift_gp import FixedAffineComponent
        out = {}
        for key, spec in self._opt({}, "learn", "fixed_rows").items():
            out[int(key)] = FixedAffineComponent(spec["linear"],
                                                 spec.get("const", 0.0))
        return out

    def equilibrium(self):
        eq = self._opt(None, "system", "equilibrium")
        return None if eq is None else np.asarray(eq, dtype=float)

    def initial_states(self):
        from .systems import boundary_states
        spec = self._opt("boundary-16", "sim", "initial_states")
        if isinstance(spec, str):
            if not spec.startswith("boundary-"):
                raise ConfigError(f"unknown initial-state spec '{spec}'")
            count = int(spec.split("-", 1)[1])
            return boundary_states(self.domain("control"), count)
        return np.atleast_2d(np.asarray(spec, dtype=float))

    def seed(self, which):
        return int(self._req("seeds", which))


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return PipelineConfig(data)
