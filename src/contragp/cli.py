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

import numpy as np

from . import drift_gp, stochastic, synthesis, verify_sim, viz
from .artifacts import read_csv, write_csv, write_json
from .config import PipelineConfig, default_oscillator_config, load_config
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


def _load_json(path, what):
    with open(_need(path, what), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: PipelineConfig, out, quiet=False, seed=None):
    system = cfg.system()
    box = cfg.domain("model")
    pts = grid_points(box, int(cfg._req("grids", "model_points_per_axis")))
    sigma_y = cfg.sigma_y()
    rng = np.random.default_rng(cfg.seed("data") if seed is None else seed)
    targets = np.asarray(system.drift(pts), dtype=float)
    noise = rng.standard_normal(targets.shape) * sigma_y[None, :]
    targets = targets + noise
    n = box.dim
    header = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    rows = np.hstack([pts, targets]).tolist()
    write_csv(_path(out, "data.csv"), header, rows)
    _say(quiet, f"wrote {len(rows)} training rows to {_path(out, 'data.csv')}")
    return {"rows": len(rows)}


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
    kernel = cfg.kernel(dim=cfg.dim)
    dataset = drift_gp.DriftDataset(pts, ys, sigma_y=cfg.sigma_y(),
                                    inputs=inputs)
    fixed = cfg.fixed_rows()
    if inputs is not None:
        model, gains = drift_gp.fit_drift_with_input(dataset, kernel,
                                                     fixed=fixed)
        extra = {"input_gains": [float(g) for g in gains]}
    else:
        model = drift_gp.fit_drift(dataset, kernel, fixed=fixed)
        extra = {}
    artifact = {"drift_model": model.to_dict(),
                "sigma_y": [float(v) for v in cfg.sigma_y()], **extra}
    write_json(_path(out, "drift_model.json"), artifact)
    _error_surfaces(cfg, out, model)
    _say(quiet, f"learned drift model from {pts.shape[0]} samples")
    return {"n_samples": pts.shape[0]}


def _error_surfaces(cfg, out, model):
    """Learned vs analytic mean/gradient surfaces on the model domain."""
    try:
        system = cfg.system()
    except ConfigError:
        return
    box = cfg.domain("model")
    pts = grid_points(box, 41 if box.dim == 2 else 201)
    n = box.dim
    header = [f"x_{i+1}" for i in range(n)]
    cols = []
    for i, comp in enumerate(model.components):
        if getattr(comp, "fixed", False):
            continue
        header += ([f"mu_{i+1}", f"f_{i+1}"]
                   + [f"dmu_{i+1}_d{j+1}" for j in range(n)]
                   + [f"df_{i+1}_d{j+1}" for j in range(n)])
        cols.append(i)
    f = system.drift(pts)
    J = system.drift_jacobian(pts)
    table = [pts]
    for i in cols:
        comp = model.components[i]
        table += [comp.mean(pts), f[:, i], comp.grad(pts), J[:, i]]
    write_csv(_path(out, "learn_errors.csv"), header,
              np.column_stack(table).tolist())


def _design_model(cfg, out):
    """The model synthesis and verification run on, with the configured
    equilibrium (where synthesis zeroes the law); also the learned drift
    model, or None for the analytic source."""
    system = cfg.system()
    if cfg.model_source == "analytic":
        system.equilibrium = cfg.equilibrium()
        return system, None
    data = _load_json(_path(out, "drift_model.json"), "drift-model artifact")
    model = drift_gp.DriftModel.from_dict(data["drift_model"])
    return model.as_system_model(b=system.b,
                                 equilibrium=cfg.equilibrium()), model


def cmd_synth(cfg: PipelineConfig, out, quiet=False, mode=None):
    mode = mode or cfg.mode
    design, drift_model = _design_model(cfg, out)
    kernel = cfg.kernel(dim=cfg.dim)
    box = cfg.domain("control")
    hulls = None
    confidence = None
    if mode == "polytopic":
        hulls = synthesis.build_hulls(
            design, box, cfg.subdivisions,
            inflation=float(cfg._opt(0.1, "polytope", "inflation")),
            samples_per_axis=int(cfg._opt(5, "polytope", "samples_per_axis")))
        if cfg._opt(False, "stochastic", "chebyshev_inflate"):
            if drift_model is None:
                raise ConfigError("probabilistic hull inflation needs a "
                                  "learned model source")
            hulls = stochastic.chebyshev_hulls(
                drift_model, hulls,
                float(cfg._opt(40.0, "stochastic", "chebyshev_c")))
            confidence = hulls.confidence
        points = hulls.centers
    else:
        points = grid_points(box, int(cfg._req("grids",
                                               "control_points_per_axis")))
    report = synthesis.run_synthesis(
        design, kernel, points, mode=mode, sigma_p=cfg.sigma_p,
        rho=cfg.rho, hulls=hulls, config=cfg.solver_config())
    if confidence is not None:
        report.diagnostics["hull_confidence"] = confidence
    write_json(_path(out, "synthesis_report.json"), report.to_dict())
    write_json(_path(out, "controller.json"), report.controller.to_dict())
    labels = [f"point_{i}" for i in range(len(report.point_margins))]
    rows = [[lbl] + list(map(float, report.points[i]))
            + [float(report.point_margins[i])]
            for i, lbl in enumerate(labels)]
    write_csv(_path(out, "margins.csv"),
              ["constraint"] + [f"x_{i+1}" for i in range(cfg.dim)] + ["margin"],
              rows)
    _controller_surface(cfg, out, report.controller)
    _say(quiet, f"synthesis ({mode}): eps={report.eps:.6f}"
         + (f", eps_p={report.eps_p:.6f}" if report.eps_p is not None else ""))
    return {"eps": report.eps, "eps_p": report.eps_p, "mode": mode}


def _controller_surface(cfg, out, controller):
    box = cfg.domain("control")
    res = int(cfg._req("grids", "verify_resolution"))
    pts = grid_points(box, res)
    vals = controller.control_batch(pts)
    header = [f"x_{i+1}" for i in range(box.dim)] + ["u"]
    write_csv(_path(out, "controller_surface.csv"), header,
              np.column_stack([pts, vals]).tolist())
    if cfg._opt(False, "emit_svg") and box.dim == 2:
        xs = np.unique(pts[:, 0])
        ys = np.unique(pts[:, 1])
        viz.heatmap_svg(_path(out, "controller_surface.svg"), xs, ys,
                        vals.reshape(len(xs), len(ys)), title="control law")


def _load_controller_and_P(out):
    controller = DerivativeController.from_dict(
        _load_json(_path(out, "controller.json"), "controller artifact"))
    report = _load_json(_path(out, "synthesis_report.json"),
                        "synthesis report")
    P = np.asarray(report["P"], dtype=float)
    return controller, P, report


def cmd_verify(cfg: PipelineConfig, out, quiet=False):
    controller, P, _ = _load_controller_and_P(out)
    design, drift_model = _design_model(cfg, out)
    box = cfg.domain("control")
    res = int(cfg._req("grids", "verify_resolution"))
    rep = verify_sim.verify_grid(design, controller, P, box, res)
    header = [f"x_{i+1}" for i in range(box.dim)] + ["margin", "factor"]
    write_csv(_path(out, "verification.csv"), header,
              np.column_stack([rep.points, rep.margins, rep.factors]).tolist())
    write_json(_path(out, "verification.json"), rep.to_dict())
    outputs = {"min_margin": rep.min_margin, "lambda": rep.lam,
               "consistent": rep.consistent}
    if cfg._opt(False, "stochastic", "moment_check"):
        if drift_model is None:
            raise ConfigError("moment check needs a learned model source")
        loop = stochastic.StochasticClosedLoop.from_drift_model(
            drift_model, controller, cfg.system().b, rep.weight)
        grid = grid_points(box, int(cfg._req("grids",
                                             "control_points_per_axis")))
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
        rows = ([k, *x, u] for k, x, u in zip(
            range(traj.horizon + 1), traj.states.tolist(),
            traj.inputs.tolist() + [None]))
        write_csv(os.path.join(directory, f"traj_{idx:02d}.csv"), header,
                  rows)
    return trajs


def _final_ratio(traj):
    return float(np.linalg.norm(traj.states[-1])
                 / max(np.linalg.norm(traj.states[0]), 1e-300))


def cmd_simulate(cfg: PipelineConfig, out, quiet=False):
    controller, P, _ = _load_controller_and_P(out)
    system = cfg.system()
    box = cfg.domain("control")
    horizon = int(cfg._opt(1000, "sim", "horizon"))
    inits = cfg.initial_states()
    W = np.linalg.inv(P)
    trajs = _rollouts(system, controller, inits, horizon,
                      _path(out, "trajectories"))
    stats = []
    for x0, traj in zip(inits, trajs):
        viol, inside = _weighted_monotone_stats(traj, W, box)
        stats.append({"initial": [float(v) for v in x0],
                      "final_ratio": _final_ratio(traj),
                      "diverged": traj.diverged,
                      "monotone_violations": viol, "steps_inside": inside})
    summary = {"horizon": horizon, "trajectories": stats,
               "max_final_ratio": max(s["final_ratio"] for s in stats),
               "any_diverged": any(s["diverged"] for s in stats),
               "total_monotone_violations": sum(s["monotone_violations"]
                                                for s in stats)}
    if cfg._opt(False, "emit_svg") and system.n == 2:
        viz.phase_portrait_svg(_path(out, "phase_portrait.svg"), trajs, box,
                               title="closed loop")
    baseline = _baseline_runs(cfg, out, system, inits, horizon, quiet)
    if baseline is not None:
        summary["baseline"] = baseline
    write_json(_path(out, "sim_summary.json"), summary)
    _say(quiet, f"simulated {len(inits)} trajectories, max final ratio "
         f"{summary['max_final_ratio']:.4f}")
    return summary


def _baseline_runs(cfg, out, system, inits, horizon, quiet):
    """Cancel-then-linear-feedback baseline on the true system, recorded but
    never asserted: its behaviour depends on the learning-error realization."""
    if not cfg._opt(False, "sim", "baseline"):
        return None
    drift_path = _path(out, "drift_model.json")
    if not os.path.exists(drift_path):
        return None
    gain = np.asarray(cfg._opt(None, "sim", "baseline_gain"), dtype=float)
    model = drift_gp.DriftModel.from_dict(
        _load_json(drift_path, "drift-model artifact")["drift_model"])
    comp = int(np.argmax(np.abs(system.b)))

    class _BaselineLaw:
        def control_batch(self, X):
            return -model.components[comp].mean(X) + X @ gain

    trajs = _rollouts(system, _BaselineLaw(), inits, horizon,
                      _path(out, "baseline"))
    stats = [{"final_ratio": _final_ratio(traj), "diverged": traj.diverged}
             for traj in trajs]
    nonconv = sum(1 for s in stats
                  if s["diverged"] or s["final_ratio"] > 0.1)
    if cfg._opt(False, "emit_svg") and system.n == 2:
        viz.phase_portrait_svg(_path(out, "baseline_portrait.svg"), trajs,
                               cfg.domain("control"), title="baseline")
    _say(quiet, f"baseline: {nonconv}/{len(stats)} trajectories flagged "
         "non-converging (recorded, not asserted)")
    return {"gain": [float(g) for g in gain],
            "nonconverging": nonconv, "trajectories": stats}


def cmd_reproduce(cfg: PipelineConfig, out, quiet=False):
    results = {}
    results["gen_data"] = cmd_gen_data(cfg, out, quiet)
    results["learn"] = cmd_learn(cfg, out, quiet)
    results["synth"] = cmd_synth(cfg, out, quiet)
    results["verify"] = cmd_verify(cfg, out, quiet)
    results["simulate"] = cmd_simulate(cfg, out, quiet)
    summary = {
        "config": cfg.data,
        "feasible": True,
        "eps": results["synth"]["eps"],
        "eps_p": results["synth"]["eps_p"],
        "min_margin": results["verify"]["min_margin"],
        "lambda": results["verify"]["lambda"],
        "grid_certified": results["verify"]["min_margin"] > 0.0
        and results["verify"]["lambda"] < 1.0,
        "max_final_ratio": results["simulate"]["max_final_ratio"],
        "monotone_violations": results["simulate"]["total_monotone_violations"],
        "baseline_nonconverging": results["simulate"].get(
            "baseline", {}).get("nonconverging"),
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
        p.add_argument("--mode", choices=["two-step", "joint", "polytopic"],
                       help="override the synthesis mode")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command == "reproduce-oscillator":
            cfg = PipelineConfig(default_oscillator_config())
        else:
            raise ConfigError("--config is required for this command")
        if args.seed is not None:
            cfg.data.setdefault("seeds", {})["data"] = int(args.seed)
        if args.mode is not None:
            cfg.data["mode"] = args.mode
        os.makedirs(args.out, exist_ok=True)
        if args.command == "gen-data":
            cmd_gen_data(cfg, args.out, args.quiet)
        elif args.command == "learn":
            cmd_learn(cfg, args.out, args.quiet)
        elif args.command == "synth":
            cmd_synth(cfg, args.out, args.quiet, mode=args.mode)
        elif args.command == "verify":
            cmd_verify(cfg, args.out, args.quiet)
        elif args.command == "simulate":
            cmd_simulate(cfg, args.out, args.quiet)
        elif args.command == "reproduce-oscillator":
            cmd_reproduce(cfg, args.out, args.quiet)
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
