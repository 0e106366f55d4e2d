"""Command-line pipeline: data generation, drift learning, synthesis,
verification, simulation, and one-command benchmark reproduction.

Exit codes: 0 success, 2 synthesis infeasible, 3 invalid input or missing
artifacts, 4 numerical failure.
"""

import os

# Pin BLAS thread pools before numpy loads so repeated runs reduce in a
# fixed order; reproduction artifacts must be byte-identical across runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import drift_gp, stochastic, synthesis, verify_sim, viz
from .artifacts import read_csv, write_csv, write_json
from .config import (MODES, PipelineConfig, default_oscillator_config,
                     load_config, read_config)
from .deriv_gp import DerivativeController
from .errors import (ConfigError, ContragpError, FactorizationError,
                     InfeasibleError, NumericalFailureError)
from .systems import grid_points

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4


def _say(quiet, *msg):
    if not quiet:
        print(*msg)


def _path(out, name):
    return os.path.join(out, name)


def _need(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"missing {what}: {path} (run the producing "
                          "command first)")
    return path


def _load_json(path, what, parse):
    """``parse`` of the JSON artifact at ``path``; ConfigError naming the
    file when it is not JSON or lacks what ``parse`` reads."""
    with open(_need(path, what), "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ConfigError(f"malformed {what} {path}: {exc!r}") from exc


def _drift_model(data):
    return drift_gp.DriftModel.from_dict(data["drift_model"])


class StageTimes(dict):
    """Wall and CPU seconds of each stage run, ``{stage: {"wall_s",
    "cpu_s"}}``, for ``--timings``."""

    @contextmanager
    def stage(self, name):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self[name] = {"wall_s": time.perf_counter() - wall,
                          "cpu_s": time.process_time() - cpu}


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: PipelineConfig, out, quiet=False):
    pts = grid_points(cfg.model_box, cfg.model_points)
    rng = np.random.default_rng(cfg.seed)
    targets = np.asarray(cfg.system.drift(pts), dtype=float)
    targets = targets + rng.standard_normal(targets.shape) * cfg.sigma_y
    n = cfg.dim
    header = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    write_csv(_path(out, "data.csv"), header, [*pts.T, *targets.T])
    _say(quiet, f"wrote {len(pts)} training rows to {_path(out, 'data.csv')}")
    return {"rows": len(pts)}


def _load_training(cfg, out):
    header, table = read_csv(_need(_path(out, "data.csv"), "training data"))
    n = cfg.dim
    want = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    if header[:2 * n] != want:
        raise ConfigError(f"data.csv columns {header} do not match the "
                          f"configured dimension {n}")
    if len(table) == 0:
        raise ConfigError("data.csv holds no training rows")
    pts = table[:, :n]
    ys = table[:, n:2 * n]
    inputs = None
    if len(header) > 2 * n and header[2 * n] == "u":
        inputs = table[:, 2 * n]
    return pts, ys, inputs


def cmd_learn(cfg: PipelineConfig, out, quiet=False):
    pts, ys, inputs = _load_training(cfg, out)
    dataset = drift_gp.DriftDataset(pts, ys, sigma_y=cfg.sigma_y,
                                    inputs=inputs)
    if inputs is not None:
        model, gains = drift_gp.fit_drift_with_input(dataset, cfg.kernel,
                                                     fixed=cfg.fixed_rows)
        extra = {"input_gains": [float(g) for g in gains]}
    else:
        model = drift_gp.fit_drift(dataset, cfg.kernel, fixed=cfg.fixed_rows)
        extra = {}
    artifact = {"drift_model": model.to_dict(),
                "sigma_y": [float(v) for v in cfg.sigma_y], **extra}
    write_json(_path(out, "drift_model.json"), artifact)
    _error_surfaces(cfg, out, model)
    _say(quiet, f"learned drift model from {pts.shape[0]} samples")
    return {"n_samples": pts.shape[0]}


def _error_surfaces(cfg, out, model):
    """Learned vs analytic mean/gradient surfaces on the model domain."""
    box = cfg.model_box
    n = box.dim
    # 201 points on a line, 41 per axis on a plane, about 41^2 in all beyond
    pts = grid_points(box, 201 if n == 1 else round(41 ** (2 / n)))
    header = [f"x_{i+1}" for i in range(n)]
    cols = []
    for i, comp in enumerate(model.components):
        if getattr(comp, "fixed", False):
            continue
        header += ([f"mu_{i+1}", f"f_{i+1}"]
                   + [f"dmu_{i+1}_d{j+1}" for j in range(n)]
                   + [f"df_{i+1}_d{j+1}" for j in range(n)])
        cols.append(i)
    f = cfg.system.drift(pts)
    J = cfg.system.drift_jacobian(pts)
    table = [pts]
    for i in cols:
        comp = model.components[i]
        table += [comp.mean(pts), f[:, i], comp.grad(pts), J[:, i]]
    write_csv(_path(out, "learn_errors.csv"), header,
              np.column_stack(table).T)


def _design_model(cfg, out):
    """The model synthesis and verification run on, with the configured
    equilibrium (where synthesis zeroes the law); also the learned drift
    model, or None for the analytic source."""
    if cfg.model_source == "analytic":
        return cfg.system, None
    model = _load_json(_path(out, "drift_model.json"), "drift-model artifact",
                       _drift_model)
    return model.as_system_model(b=cfg.system.b,
                                 equilibrium=cfg.equilibrium), model


def cmd_synth(cfg: PipelineConfig, out, quiet=False):
    design, drift_model = _design_model(cfg, out)
    hulls = confidence = None
    if cfg.mode == "polytopic":
        hulls = synthesis.build_hulls(
            design, cfg.control_box, cfg.subdivisions,
            inflation=cfg.inflation, samples_per_axis=cfg.samples_per_axis)
        if cfg.chebyshev_inflate:
            hulls = stochastic.chebyshev_hulls(drift_model, hulls,
                                               cfg.chebyshev_c)
            confidence = hulls.confidence
        points = hulls.centers
    else:
        points = grid_points(cfg.control_box, cfg.control_points)
    report = synthesis.run_synthesis(design, cfg.kernel, points, mode=cfg.mode,
                                     rho=cfg.rho, hulls=hulls)
    if confidence is not None:
        report.diagnostics["hull_confidence"] = confidence
    write_json(_path(out, "synthesis_report.json"), report.to_dict())
    write_json(_path(out, "controller.json"), report.controller.to_dict())
    labels = [f"point_{i}" for i in range(len(report.point_margins))]
    write_csv(_path(out, "margins.csv"),
              ["constraint"] + [f"x_{i+1}" for i in range(cfg.dim)] + ["margin"],
              [labels, *report.points.T, report.point_margins])
    _controller_surface(cfg, out, report.controller)
    _say(quiet, f"synthesis ({cfg.mode}): eps={report.eps:.6f}"
         + (f", eps_p={report.eps_p:.6f}" if report.eps_p is not None else ""))
    return {"eps": report.eps, "eps_p": report.eps_p, "mode": cfg.mode}


def _controller_surface(cfg, out, controller):
    box = cfg.control_box
    pts = grid_points(box, cfg.verify_resolution)
    vals = controller.control_batch(pts)
    header = [f"x_{i+1}" for i in range(box.dim)] + ["u"]
    write_csv(_path(out, "controller_surface.csv"), header, [*pts.T, vals])
    if cfg.emit_svg and box.dim == 2:
        xs = np.unique(pts[:, 0])
        ys = np.unique(pts[:, 1])
        viz.heatmap_svg(_path(out, "controller_surface.svg"), xs, ys,
                        vals.reshape(len(xs), len(ys)), title="control law")


def _load_controller_and_P(out):
    controller = _load_json(_path(out, "controller.json"),
                            "controller artifact",
                            DerivativeController.from_dict)
    P = _load_json(_path(out, "synthesis_report.json"), "synthesis report",
                   lambda report: np.asarray(report["P"], dtype=float))
    return controller, P


def cmd_verify(cfg: PipelineConfig, out, quiet=False):
    controller, P = _load_controller_and_P(out)
    design, drift_model = _design_model(cfg, out)
    box = cfg.control_box
    rep = verify_sim.verify_grid(design, controller, P, box,
                                 cfg.verify_resolution)
    header = [f"x_{i+1}" for i in range(box.dim)] + ["margin", "factor"]
    write_csv(_path(out, "verification.csv"), header,
              [*rep.points.T, rep.margins, rep.factors])
    write_json(_path(out, "verification.json"), rep.to_dict())
    outputs = {"min_margin": rep.min_margin, "lambda": rep.lam,
               "consistent": rep.consistent}
    if cfg.moment_check:
        loop = stochastic.StochasticClosedLoop.from_drift_model(
            drift_model, controller, cfg.system.b, rep.weight)
        grid = grid_points(box, cfg.control_points)
        mrep = stochastic.moment_ies_check(loop, grid)
        write_json(_path(out, "moment_report.json"), mrep.to_dict())
        outputs["moment_eps_bar"] = mrep.eps_bar
    _say(quiet, f"verification: min margin {rep.min_margin:.6f}, "
         f"lambda {rep.lam:.6f}, consistent {rep.consistent}")
    return outputs


def _weighted_monotone_stats(traj, W, box, floor=1e-10):
    """Per-step decrease of the weighted norm while the state stays inside
    the certified region; steps already at the numerical floor are skipped
    (ratios there are roundoff noise, not dynamics)."""
    d = verify_sim.weighted_norms(traj.states, W)
    d0, d1 = d[:-1], d[1:]
    counted = box.contains_rows(traj.states[:-1]) & (d0 >= floor)
    viol = np.count_nonzero(counted & (d1 > d0 * (1.0 + 1e-9)))
    return int(viol), int(np.count_nonzero(counted))


def _rollouts(system, law, inits, horizon, directory):
    """Roll the law out on the system from every initial state in lockstep,
    writing ``<directory>/traj_XX.csv``; returns the trajectories."""
    os.makedirs(directory, exist_ok=True)
    header = ["k"] + [f"x_{i+1}" for i in range(system.n)] + ["u"]
    trajs = verify_sim.rollouts(system, law, inits, horizon)
    for idx, traj in enumerate(trajs):
        # one input fewer than states: the last row's u cell stays empty
        write_csv(os.path.join(directory, f"traj_{idx:02d}.csv"), header,
                  [np.arange(traj.horizon + 1), *traj.states.T, traj.inputs])
    return trajs


def _final_ratio(traj):
    return float(np.linalg.norm(traj.states[-1])
                 / max(np.linalg.norm(traj.states[0]), 1e-300))


def cmd_simulate(cfg: PipelineConfig, out, quiet=False):
    controller, P = _load_controller_and_P(out)
    system, box = cfg.system, cfg.control_box
    W = np.linalg.inv(P)
    trajs = _rollouts(system, controller, cfg.initial_states, cfg.horizon,
                      _path(out, "trajectories"))
    stats = []
    for x0, traj in zip(cfg.initial_states, trajs):
        viol, inside = _weighted_monotone_stats(traj, W, box)
        stats.append({"initial": [float(v) for v in x0],
                      "final_ratio": _final_ratio(traj),
                      "diverged": traj.diverged,
                      "monotone_violations": viol, "steps_inside": inside})
    summary = {"horizon": cfg.horizon, "trajectories": stats,
               "max_final_ratio": max(s["final_ratio"] for s in stats),
               "any_diverged": any(s["diverged"] for s in stats),
               "total_monotone_violations": sum(s["monotone_violations"]
                                                for s in stats)}
    if cfg.emit_svg and system.n == 2:
        viz.phase_portrait_svg(_path(out, "phase_portrait.svg"), trajs, box,
                               title="closed loop")
    baseline = _baseline_runs(cfg, out, quiet)
    if baseline is not None:
        summary["baseline"] = baseline
    write_json(_path(out, "sim_summary.json"), summary)
    _say(quiet, f"simulated {len(trajs)} trajectories, max final ratio "
         f"{summary['max_final_ratio']:.4f}")
    return summary


def _baseline_runs(cfg, out, quiet):
    """Cancel-then-linear-feedback baseline on the true system, recorded but
    never asserted: its behaviour depends on the learning-error realization."""
    if not cfg.baseline:
        return None
    drift_path = _path(out, "drift_model.json")
    if not os.path.exists(drift_path):
        return None
    gain, system = cfg.baseline_gain, cfg.system
    model = _load_json(drift_path, "drift-model artifact", _drift_model)
    comp = int(np.argmax(np.abs(system.b)))

    class _BaselineLaw:
        def control_batch(self, X):
            return -model.components[comp].mean(X) + X @ gain

    trajs = _rollouts(system, _BaselineLaw(), cfg.initial_states,
                      cfg.horizon, _path(out, "baseline"))
    stats = [{"final_ratio": _final_ratio(traj), "diverged": traj.diverged}
             for traj in trajs]
    nonconv = sum(1 for s in stats
                  if s["diverged"] or s["final_ratio"] > 0.1)
    if cfg.emit_svg and system.n == 2:
        viz.phase_portrait_svg(_path(out, "baseline_portrait.svg"), trajs,
                               cfg.control_box, title="baseline")
    _say(quiet, f"baseline: {nonconv}/{len(stats)} trajectories flagged "
         "non-converging (recorded, not asserted)")
    return {"gain": [float(g) for g in gain],
            "nonconverging": nonconv, "trajectories": stats}


def cmd_reproduce(cfg: PipelineConfig, out, quiet=False, times=None):
    times = StageTimes() if times is None else times
    with times.stage("gen_data"):
        cmd_gen_data(cfg, out, quiet)
    with times.stage("learn"):
        cmd_learn(cfg, out, quiet)
    with times.stage("synth"):
        synth = cmd_synth(cfg, out, quiet)
    with times.stage("verify"):
        verify = cmd_verify(cfg, out, quiet)
    with times.stage("simulate"):
        sim = cmd_simulate(cfg, out, quiet)
    summary = {
        "config": cfg.raw,
        "feasible": True,
        "eps": synth["eps"],
        "eps_p": synth["eps_p"],
        "min_margin": verify["min_margin"],
        "lambda": verify["lambda"],
        "grid_certified": verify["min_margin"] > 0.0 and verify["lambda"] < 1.0,
        "max_final_ratio": sim["max_final_ratio"],
        "monotone_violations": sim["total_monotone_violations"],
        "baseline_nonconverging": sim.get("baseline", {}).get("nonconverging"),
    }
    write_json(_path(out, "summary.json"), summary)
    _say(quiet, "reproduction summary:", json.dumps(
        {k: v for k, v in summary.items() if k != "config"}, sort_keys=True))
    return summary


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="contragp",
        description="Contraction-based controller synthesis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gen-data": "generate drift training data",
        "learn": "fit the drift model from training data",
        "synth": "synthesize metric and feedback law",
        "verify": "grid-certify the synthesized closed loop",
        "simulate": "roll out the closed loop on the true system",
        "reproduce-oscillator": "run the full oscillator benchmark chain",
    }
    for name, help_ in specs.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="path to a pipeline config JSON"
                       + ("" if name == "reproduce-oscillator"
                          else " (required)"))
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, help="override the data seed")
        p.add_argument("--mode", choices=MODES,
                       help="override the synthesis mode")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--timings", metavar="PATH",
                       help="write each stage's wall and CPU seconds as "
                       "JSON to PATH, which must lie outside --out")
    return parser


def _config(args):
    """The config file (oscillator defaults for reproduce-oscillator) with
    ``--seed`` and ``--mode`` written into its dict before the one parse."""
    if not args.config and args.command != "reproduce-oscillator":
        raise ConfigError("--config is required for this command")
    if args.seed is None and args.mode is None:
        return (load_config(args.config) if args.config
                else PipelineConfig(default_oscillator_config()))
    data = (read_config(args.config) if args.config
            else default_oscillator_config())
    seeds = data.get("seeds", {}) if isinstance(data, dict) else None
    if isinstance(seeds, dict) and args.seed is not None:
        data["seeds"] = {**seeds, "data": args.seed}
    if isinstance(data, dict) and args.mode is not None:
        data["mode"] = args.mode
    return PipelineConfig(data)


def _check_timings_path(args):
    """Timings vary from run to run, so they stay out of the artifact tree,
    whose bytes are deterministic."""
    if args.timings is None:
        return
    out, path = (os.path.realpath(p) for p in (args.out, args.timings))
    if os.path.commonpath([out, path]) == out:
        raise ConfigError(f"--timings {args.timings} lies inside --out "
                          f"{args.out}; give a path outside it")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_timings_path(args)
        cfg = _config(args)
        os.makedirs(args.out, exist_ok=True)
        times = StageTimes()
        if args.command == "reproduce-oscillator":
            cmd_reproduce(cfg, args.out, args.quiet, times)
        else:
            stage = args.command.replace("-", "_")
            with times.stage(stage):
                # looked up per call, so a wrapped cmd_<stage> is the one run
                globals()[f"cmd_{stage}"](cfg, args.out, args.quiet)
        if args.timings is not None:
            write_json(args.timings, times)
        return EXIT_OK
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FactorizationError, NumericalFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ContragpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
