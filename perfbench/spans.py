"""CPU-time spans around the public functions of each contragp layer.

The wrappers are installed from outside the package: every public function
and method of the layer modules is replaced by a wrapper that records a span
(name, start, end, parent span) in CPU seconds of the process. Names that
other modules imported directly (``cli.write_csv``, ``synthesis.fit``,
``verify_sim.ies_block`` ...) are replaced as well, so those calls are
traced too. ``SystemModel`` keeps its drift and Jacobian as instance
attributes; they are wrapped as each model is built.

Spans are kept in flat arrays and written out once, when the run ends. A
layer's self time is the time of its spans minus the time of their child
spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array

import numpy as np

# Module names of the layers, as in the package.
LAYERS = ("kernels", "deriv_gp", "drift_gp", "systems", "lmi", "synthesis",
          "verify_sim", "stochastic", "artifacts", "cli", "config")
# A module that imports layer functions by name but is not traced itself.
IMPORTERS = ("viz",)


class Tracer:
    """Span recorder with per-name call counts, self and inclusive times."""

    def __init__(self):
        self._by_name = {}
        self.names = []
        self.layer_of = []
        self.calls = []
        self.self_s = []
        self.incl_s = []
        self._active = []
        self.counters = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []

    def _name_id(self, name, layer):
        if name in self._by_name:
            return self._by_name[name]
        self._by_name[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def reset(self):
        """Forget every span and aggregate; wrappers stay installed."""
        for table in (self.calls, self._active):
            table[:] = [0] * len(table)
        for table in (self.self_s, self.incl_s):
            table[:] = [0.0] * len(table)
        self.counters.clear()
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self._stack.clear()

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, layer, fn, hook=None):
        """Return ``fn`` recording one span per call; ``hook(tracer, args,
        result)`` runs after a call that returns."""
        nid = self._name_id(name, layer)
        clock = time.process_time
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, incl_s, active = (self.calls, self.self_s, self.incl_s,
                                         self._active)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                active[nid] -= 1
                if not active[nid]:
                    incl_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- aggregates -------------------------------------------------------

    def n_calls(self, *names):
        return sum(self.calls[self._by_name[n]] for n in names
                   if n in self._by_name)

    def inclusive(self, name):
        nid = self._by_name.get(name)
        return 0.0 if nid is None else self.incl_s[nid]

    def self_time(self, name):
        nid = self._by_name.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def layer_self(self, layer):
        return sum(s for s, l in zip(self.self_s, self.layer_of) if l == layer)

    @property
    def n_spans(self):
        return len(self.span_start)

    def write(self, path):
        """Write every span to an ``.npz`` file: ``names`` holds the span
        names; ``name``, ``parent``, ``start`` and ``end`` one entry per
        span (``parent`` is -1 for a root span)."""
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


def _pairs(tr, args, result):
    tr.count("kernels.pairs", result.shape[0] * result.shape[1])


def _states(tr, args, result):
    tr.count("deriv_gp.states", result.shape[0])


def _lmi_solve(tr, args, result):
    problem = args[0]
    tr.count("lmi.probes", int(result.info.get("probes", 0)))
    tr.count("lmi.blocks", len(problem.blocks))
    tr.count("lmi.dim", int(problem.dim))
    tr.count("lmi.hessian_entries",
             sum(blk.coeffs.shape[0] ** 2 for blk in problem.blocks))


def _vertices(tr, args, result):
    tr.count("synthesis.vertices", len(result))


def _rollout(tr, args, result):
    tr.count("verify_sim.rollout_steps", result.states.shape[0] - 1)


def _verify_grid(tr, args, result):
    tr.count("verify_sim.grid_points", len(result.points))


def _moment(tr, args, result):
    tr.count("stochastic.moment_points", len(result.points))


def _written(tr, args, result):
    tr.count("artifacts.files")
    tr.count("artifacts.bytes", os.path.getsize(args[0]))


HOOKS = {
    "kernels.Kernel.value_outer": _pairs,
    "kernels.Kernel.grad_x2_outer": _pairs,
    "kernels.Kernel.hess_cross_outer": _pairs,
    "deriv_gp.DerivativeController.control_batch": _states,
    "deriv_gp.DerivativeController.control_grad_batch": _states,
    "lmi.solve": _lmi_solve,
    "synthesis.VertexHull.vertices": _vertices,
    "verify_sim.rollout": _rollout,
    "verify_sim.verify_grid": _verify_grid,
    "stochastic.moment_ies_check": _moment,
    "artifacts.atomic_write_text": _written,
}


def install(tracer, package="contragp"):
    """Wrap every public function and method of the layer modules."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                qual = f"{layer}.{name}"
                wrapped = tracer.wrap(qual, layer, obj, HOOKS.get(qual))
                setattr(mod, name, wrapped)
                replaced[obj] = wrapped
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(tracer, layer, obj)
    for mod_name in LAYERS + IMPORTERS:
        mod = importlib.import_module(f"{package}.{mod_name}")
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
    _wrap_system_callables(tracer, importlib.import_module(f"{package}.systems"))


def _wrap_class(tracer, layer, cls):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        qual = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(qual, layer, member, HOOKS.get(qual)))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(
                tracer.wrap(qual, layer, member.__func__, HOOKS.get(qual))))


def _wrap_system_callables(tracer, systems):
    """SystemModel stores its drift and drift Jacobian per instance; wrap
    them as each model is built."""
    cls = systems.SystemModel
    init = cls.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.drift = tracer.wrap("systems.SystemModel.drift", "systems",
                                 self.drift)
        self.drift_jacobian = tracer.wrap(
            "systems.SystemModel.drift_jacobian", "systems",
            self.drift_jacobian)

    traced_init.__wrapped__ = init
    cls.__init__ = traced_init
