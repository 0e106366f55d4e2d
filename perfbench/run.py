"""CPU-time benchmark of the contragp design pipeline.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 5 --trace 0

Runs one workload of the pipeline in this process, through ``contragp.cli``
as a user would, checks the artifacts with computations made apart from the
program (``checks.py``), and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run repeats whole rounds until ``--seconds`` of CPU time have been
measured. Every time is CPU seconds of this process (user + system), so
other processes on the machine move it far less than wall time. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
public function of the package is wrapped (``spans.py``) and the metrics are
the per-layer ones, from one pass of the pipeline per round.

See README.md in this directory for the workloads and the metrics.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the program is single-threaded
# and its artifacts are compared bit for bit across runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
from functools import cached_property
from pathlib import Path

import numpy as np

import checks
from speed import RawCpu, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is measured in fresh interpreters: start, import the package,
# load and validate the config, report own scaled CPU time since start.
SETUP_PROBE = r"""
import os, sys
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
probe = SpeedProbe(period=0.01)
probe.start()
sys.path.insert(0, sys.argv[2])
from contragp import cli
cli.load_config(sys.argv[3])
end = probe.mark()
probe.stop()
print(repr(probe.seconds((0.0, 0.0, 0), end)))
"""
SETUP_PROBES = 5

STAGES = ("gen_data", "learn", "synth", "verify", "simulate")

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "synth_s": "s",
              "verify_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# workloads


# Every workload keeps the shipped data seed. The work of the LMI solver
# depends on the data: over data seeds 31-35 the reproduction's gain solve
# took 16 to 19 bisection probes and 0.82 to 1.46 s of CPU, a spread no
# bound of 25 % holds. The benchmark's --seed picks the verification rows the
# checks recompute.


def reproduce_config():
    """The shipped reproduction."""
    from contragp.config import default_oscillator_config
    return default_oscillator_config()


def dense_gain_config():
    """Learned oscillator with gradient-target noise: every gain block
    touches every target. A 6x6 design grid keeps synth near 8 s of CPU."""
    cfg = reproduce_config()
    cfg["noise"]["sigma_p"] = 0.1
    cfg["stochastic"]["moment_check"] = True
    cfg["grids"]["control_points_per_axis"] = 6
    return cfg


def polytopic_config():
    """Analytic oscillator on the polytopic route, 8x8 cells. Inflation is
    0 because the default 0.1 is infeasible."""
    cfg = reproduce_config()
    cfg["mode"] = "polytopic"
    cfg["synthesis"]["model_source"] = "analytic"
    cfg["polytope"] = {"subdivisions": 8, "inflation": 0.0,
                       "samples_per_axis": 5}
    return cfg


class Workload:
    def __init__(self, name, config, commands, checks, passes=1, repeats=None):
        self.name = name
        self.config = config
        self.commands = commands  # one pass of the pipeline
        self.checks = checks
        self.passes = passes      # passes per round; pipeline_s is the median
        self.repeats = repeats or {}  # stage -> extra executions per round

    def stages(self, passes):
        return [s for cmd in self.commands for s in COMMAND_STAGES[cmd]] * passes


COMMAND_STAGES = {"reproduce-oscillator": STAGES, "gen-data": ("gen_data",),
                  "learn": ("learn",), "synth": ("synth",),
                  "verify": ("verify",), "simulate": ("simulate",)}


class Artifacts:
    """One round's artifacts and the maps rebuilt from them, loaded on
    first use so that a missing artifact fails only the checks that need
    it."""

    def __init__(self, out, cfg, seed, captured):
        self.out = str(out)
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.captured = captured
        self.system = checks.Oscillator(cfg["system"]["dt"])
        self.b = self.system.b
        self.rho = float(cfg["solver"]["rho"])
        box = cfg["domain"]["control"]
        self.lo = [s[0] for s in box]
        self.hi = [s[1] for s in box]

    def _json(self, name):
        return checks.load_json(os.path.join(self.out, name))

    @cached_property
    def report(self):
        return self._json("synthesis_report.json")

    @cached_property
    def P(self):
        return np.asarray(self.report["P"], dtype=float)

    @cached_property
    def law(self):
        return checks.SELaw(self._json("controller.json"))

    @cached_property
    def trajectories(self):
        return checks.read_trajectories(self.out)

    @cached_property
    def drift(self):
        return checks.LearnedDrift(self._json("drift_model.json")["drift_model"])

    @cached_property
    def design_drift(self):
        """The drift the design used: learned or analytic."""
        if self.cfg["synthesis"]["model_source"] == "learned":
            return self.drift.drift
        return self.system.drift

    @cached_property
    def design_jacobians(self):
        return checks.fd_jacobian(self.design_drift,
                                  np.asarray(self.report["points"], float))

    @cached_property
    def hull(self):
        poly = self.cfg["polytope"]
        return checks.hull_intervals(self.system, self.lo, self.hi,
                                     poly["subdivisions"],
                                     poly["samples_per_axis"],
                                     poly["inflation"])

    @cached_property
    def hull_vertices(self):
        lo, hi = self.hull
        return np.concatenate([checks.hull_vertices(lo[i], hi[i])
                               for i in range(len(lo))])


def _law_checks(a):
    return [lambda: checks.check_law_surface(a.out, a.law)]


def _design_checks(a):
    return [
        lambda: checks.check_grid(a.out, a.P, a.design_drift, a.b, a.law,
                                  a.rng),
        lambda: checks.check_point_margins(a.report, a.design_drift, a.b,
                                           a.law),
    ]


def _two_step_checks(a):
    return [
        lambda: checks.check_metric(a.report, a.rho, a.design_jacobians, a.b),
        lambda: checks.check_gain_optimum(a.report, a.design_jacobians, a.b,
                                          a.rho),
    ]


def _reproduce_checks(a):
    return _law_checks(a) + [
        lambda: checks.check_law_trajectories(a.trajectories, a.law,
                                              a.system,
                                              a.cfg["sim"]["horizon"]),
        lambda: checks.check_convergence(a.trajectories),
    ] + _design_checks(a) + _two_step_checks(a)


def _dense_gain_checks(a):
    moment_points = checks.grid(a.lo, a.hi,
                                a.cfg["grids"]["control_points_per_axis"])
    return _law_checks(a) + _design_checks(a) + _two_step_checks(a) + [
        lambda: checks.check_moment(a.out, a.P, a.drift, a.b, a.law,
                                    moment_points),
    ]


def _polytopic_checks(a):
    r = a.cfg["polytope"]["subdivisions"]
    return _law_checks(a) + _design_checks(a) + [
        lambda: checks.check_hulls(a.captured["hulls"].lo,
                                   a.captured["hulls"].hi, *a.hull),
        lambda: checks.check_metric(a.report, a.rho, a.hull_vertices, a.b),
        lambda: checks.check_vertex_margins(a.report, *a.hull, a.b, a.law),
        lambda: checks.check_cell_region(a.P, a.system, a.law, a.lo, a.hi,
                                         r),
    ]


# Repetitions bring each time metric's spread over runs below a third of its
# bound: verify takes 0.1-0.2 s, and dense-gain's synthesis (dense algebra on
# ~1 MB arrays) follows the machine's slowdowns less closely than the scaling
# unit does, so it runs three passes per round.
WORKLOADS = {
    "reproduce": Workload("reproduce", reproduce_config,
                          ["reproduce-oscillator"], _reproduce_checks,
                          repeats={"synth": 2, "verify": 8}),
    "dense-gain": Workload("dense-gain", dense_gain_config,
                           ["gen-data", "learn", "synth", "verify"],
                           _dense_gain_checks, passes=3,
                           repeats={"verify": 6}),
    "polytopic": Workload("polytopic", polytopic_config,
                          ["synth", "verify"], _polytopic_checks,
                          repeats={"verify": 16}),
}
# Operations that fail on every round, with the fault behind them.
KNOWN_FAULTS = {
    "cells.region_certificate":
        "the polytopic route certifies each cell's vertex Jacobians with the "
        "law's gradient at the cell center only (synthesis._gain_problem, "
        "synthesis._finish_gain)",
}


# ---------------------------------------------------------------------------
# one round


class StageClock:
    """Marks and outcome of every pipeline stage, taken around
    ``contragp.cli.cmd_<stage>``."""

    def __init__(self, cli, clock):
        self.clock = clock
        self.records = []
        for stage in STAGES:
            name = f"cmd_{stage}"
            setattr(cli, name, self._timed(stage, getattr(cli, name)))

    def _timed(self, stage, fn):
        def timed(*args, **kwargs):
            start = self.clock.mark()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.records.append((stage, start, self.clock.mark(), ok))
        return timed

    def times(self, stage):
        return [self.clock.seconds(a, b) for s, a, b, _ in self.records
                if s == stage]

    def failed(self, stage):
        return any(s == stage and not ok for s, _, _, ok in self.records)


def run_round(wl, seed, cli, clock, captured, trace):
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = wl.config()
    cfg_path = OUT / f"{wl.name}.config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    clock.records.clear()
    captured.clear()

    passes = 1 if trace else wl.passes
    windows = []
    for _ in range(passes):
        start = clock.clock.mark()
        for cmd in wl.commands:
            _cli(cli, cmd, cfg_path, out)
        windows.append((start, clock.clock.mark()))
    if not trace:
        for stage, count in wl.repeats.items():
            for _ in range(count):
                _cli(cli, stage.replace("_", "-"), cfg_path, out)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = []
    for stage in wl.stages(passes):
        ok = bool(clock.times(stage)) and not clock.failed(stage)
        outcomes.append(checks.Outcome(
            f"stage.{stage}", "pass" if ok else "failed",
            "ran" if ok else "raised or exited non-zero"))
    outcomes += _run_checks(wl.checks(Artifacts(out, cfg, seed, captured)))
    scaled = [clock.clock.seconds(a, b) for a, b in windows]
    values = {"pipeline_s": statistics.median(scaled), "peak_rss_mb": peak_rss}
    for (a, b), v in zip(windows, scaled):
        print(f"[{wl.name}] pass: {b[0] - a[0]:.3f} s of CPU, {v:.3f} s "
              "scaled", file=sys.stderr)
    for stage in STAGES:
        times = clock.times(stage)
        if times:
            values[f"{stage}_s"] = statistics.median(times)
    return values, outcomes


def _cli(cli, cmd, cfg_path, out):
    argv = [cmd, "--config", str(cfg_path), "--out", str(out), "--quiet"]
    try:
        code = cli.main(argv)
    except Exception as exc:  # a stage that crashes is a failed operation
        print(f"{cmd}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    if code != 0:
        print(f"{cmd} exited with code {code}", file=sys.stderr)


def _run_checks(thunks):
    outcomes = []
    for i, thunk in enumerate(thunks):
        try:
            outcomes.append(thunk())
        except Exception as exc:  # a missing or malformed artifact
            outcomes.append(checks.Outcome(f"check[{i}]", "failed",
                                           f"{type(exc).__name__}: {exc}"))
    return outcomes


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(cfg_path):
    """Median scaled CPU time of fresh interpreters up to the first
    stage."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH),
                               str(SRC), str(cfg_path)], capture_output=True,
                              text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def layer_values(tr, values):
    """Per-layer metrics of one traced pass."""
    c = tr.counters
    kcalls = tr.n_calls("kernels.Kernel.value_outer",
                        "kernels.Kernel.grad_x2_outer",
                        "kernels.Kernel.hess_cross_outer")
    ccalls = tr.n_calls("deriv_gp.DerivativeController.control_batch",
                        "deriv_gp.DerivativeController.control_grad_batch")
    grid_s = tr.inclusive("verify_sim.verify_grid")
    roll_s = tr.inclusive("verify_sim.rollout")
    out = {
        "kernels.calls": (kcalls, "count"),
        "kernels.pairs_per_call": (_ratio(c.get("kernels.pairs", 0), kcalls),
                                   "pairs/call"),
        "kernels.self_s": (tr.layer_self("kernels"), "s"),
        "deriv_gp.control_calls": (ccalls, "count"),
        "deriv_gp.states_per_call": (_ratio(c.get("deriv_gp.states", 0),
                                            ccalls), "states/call"),
        "deriv_gp.fit_s": (tr.inclusive("deriv_gp.fit"), "s"),
        "deriv_gp.self_s": (tr.layer_self("deriv_gp"), "s"),
        "drift_gp.mean_calls": (tr.n_calls("drift_gp.GPComponent.mean",
                                           "drift_gp.GPComponent.mean_batch"),
                                "count"),
        "drift_gp.jacobian_calls": (tr.n_calls("drift_gp.GPComponent.grad"),
                                    "count"),
        "drift_gp.variance_calls": (tr.n_calls(
            "drift_gp.GPComponent.value_variance",
            "drift_gp.GPComponent.jac_variance",
            "drift_gp.GPComponent.variance_total_gradient"), "count"),
        "drift_gp.self_s": (tr.layer_self("drift_gp"), "s"),
        "systems.step_calls": (tr.n_calls("systems.SystemModel.step"),
                               "count"),
        "systems.jacobian_calls": (tr.n_calls(
            "systems.SystemModel.drift_jacobian"), "count"),
        "systems.self_s": (tr.layer_self("systems"), "s"),
        "lmi.solves": (tr.n_calls("lmi.solve"), "count"),
        "lmi.solve_s": (tr.inclusive("lmi.solve"), "s"),
        "lmi.probes": (c.get("lmi.probes", 0), "count"),
        "lmi.blocks": (c.get("lmi.blocks", 0), "count"),
        "lmi.dim": (c.get("lmi.dim", 0), "count"),
        "lmi.hessian_entries": (c.get("lmi.hessian_entries", 0), "count"),
        "lmi.self_s": (tr.layer_self("lmi"), "s"),
        "synthesis.metric_s": (tr.inclusive("synthesis.solve_metric"), "s"),
        "synthesis.gain_s": (tr.inclusive("synthesis.solve_gain"), "s"),
        "synthesis.build_hulls_s": (tr.inclusive("synthesis.build_hulls"),
                                    "s"),
        "synthesis.vertices": (c.get("synthesis.vertices", 0), "count"),
        "synthesis.self_s": (tr.layer_self("synthesis"), "s"),
        "verify_sim.verify_grid_s": (grid_s, "s"),
        "verify_sim.grid_points_per_s": (_ratio(
            c.get("verify_sim.grid_points", 0), grid_s), "1/s"),
        "verify_sim.rollout_steps": (c.get("verify_sim.rollout_steps", 0),
                                     "count"),
        "verify_sim.rollout_steps_per_s": (_ratio(
            c.get("verify_sim.rollout_steps", 0), roll_s), "1/s"),
        "verify_sim.rollout_self_s": (tr.self_time("verify_sim.rollout"), "s"),
        "stochastic.moment_check_s": (tr.inclusive(
            "stochastic.moment_ies_check"), "s"),
        "stochastic.moment_points": (c.get("stochastic.moment_points", 0),
                                     "count"),
        "artifacts.files": (c.get("artifacts.files", 0), "count"),
        "artifacts.bytes": (c.get("artifacts.bytes", 0), "B"),
        "artifacts.write_s": (tr.inclusive("artifacts.write_json")
                              + tr.inclusive("artifacts.write_csv"), "s"),
        "config.load_s": (tr.inclusive("config.load_config"), "s"),
        "trace.pipeline_s": (values["pipeline_s"], "s"),
        "trace.spans": (tr.n_spans, "count"),
    }
    for stage in STAGES:
        out[f"cli.{stage}_self_s"] = (tr.self_time(f"cli.cmd_{stage}"), "s")
    for stage in ("gen_data", "learn", "simulate"):
        out[f"stage.{stage}_s"] = (values.get(f"{stage}_s", 0.0), "s")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "contragp" / "__init__.py").is_file():
        print(f"contragp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import contragp
    if Path(contragp.__file__).resolve().parent != SRC / "contragp":
        print(f"imported contragp from {contragp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from contragp import cli

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    captured = {}
    _capture_hulls(captured)

    setup = None
    if not args.trace:
        cfg_path = OUT / f"{wl.name}.config.json"
        cfg_path.write_text(json.dumps(wl.config(), indent=2) + "\n")
        setup = setup_seconds(cfg_path)
    # the traced run reports unscaled CPU: the probe's ticks would land in
    # whichever span is open
    clock = StageClock(cli, RawCpu() if args.trace else SpeedProbe())
    clock.clock.start()

    rounds = []
    attempted = failed = 0
    correct = True
    measured = 0.0
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.process_time()
        values, outcomes = run_round(wl, args.seed, cli, clock, captured,
                                     bool(args.trace))
        measured += time.process_time() - t0
        if tracer is not None:
            values = layer_values(tracer, values)
            tracer.write(OUT / f"{wl.name}.spans.npz")
        rounds.append(values)
        for o in outcomes:
            fault = KNOWN_FAULTS.get(o.name) if o.status == "failed" else None
            print(f"[{wl.name}] {o.status:6s} {o.name}: {o.detail}"
                  + (f" -- known fault: {fault}" if fault else ""),
                  file=sys.stderr)
        attempted += len(outcomes)
        failed += sum(o.status == "failed" for o in outcomes)
        correct = correct and not any(o.status == "wrong" for o in outcomes)
        if measured >= args.seconds:
            break

    clock.clock.stop()
    if args.trace:
        metrics = {k: {"value": statistics.median(r[k][0] for r in rounds),
                       "unit": rounds[0][k][1]} for k in sorted(rounds[0])}
    else:
        # a stage that never completed has no time; its failure is counted
        metrics = {"setup_s": {"value": setup, "unit": "s"}}
        for k in ("pipeline_s", "synth_s", "verify_s", "peak_rss_mb"):
            metrics[k] = {"value": statistics.median(r.get(k, 0.0)
                                                     for r in rounds),
                          "unit": END_TO_END[k]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _capture_hulls(captured):
    """Keep the hulls the polytopic route built, for the hull checks."""
    from contragp import synthesis
    build = synthesis.build_hulls

    def capture(*args, **kwargs):
        captured["hulls"] = build(*args, **kwargs)
        return captured["hulls"]

    synthesis.build_hulls = capture


if __name__ == "__main__":
    sys.exit(main())
