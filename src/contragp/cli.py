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

# The config check loads these modules anyway (config builds on drift_gp).
# Every stage module is imported by the function that runs it, so a command
# loads only the stages it runs.
from . import drift_gp
from .config import (MODES, PipelineConfig, default_oscillator_config,
                     load_config, read_config)
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
    from .artifacts import write_csv
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
    from .artifacts import read_csv
    path = _need(_path(out, "data.csv"), "training data")
    header, table = read_csv(path)
    n = cfg.dim
    want = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    if header != want:
        raise ConfigError(f"malformed training data {path}: columns {header} "
                          f"are not {want}, those of the configured "
                          f"dimension {n}")
    if len(table) == 0:
        raise ConfigError(f"malformed training data {path}: no rows")
    return table[:, :n], table[:, n:]


def cmd_learn(cfg: PipelineConfig, out, quiet=False):
    from .artifacts import write_json
    pts, ys = _load_training(cfg, out)
    model = drift_gp.fit_drift(drift_gp.DriftDataset(pts, ys,
                                                     sigma_y=cfg.sigma_y),
                               cfg.kernel, fixed=cfg.fixed_rows)
    write_json(_path(out, "drift_model.json"),
               {"drift_model": model.to_dict(),
                "sigma_y": [float(v) for v in cfg.sigma_y]})
    _error_surfaces(cfg, out, model)
    _say(quiet, f"learned drift model from {pts.shape[0]} samples")
    return {"n_samples": pts.shape[0]}


def _error_surfaces(cfg, out, model):
    """Learned vs analytic mean/gradient surfaces on the model domain."""
    from .artifacts import write_csv
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
                       lambda data: drift_gp.DriftModel.from_dict(
                           data["drift_model"]))
    return model.as_system_model(b=cfg.system.b,
                                 equilibrium=cfg.equilibrium), model


def cmd_synth(cfg: PipelineConfig, out, quiet=False):
    from . import synthesis
    from .artifacts import write_csv, write_json
    design, drift_model = _design_model(cfg, out)
    hulls = confidence = None
    if cfg.mode == "polytopic":
        hulls = synthesis.build_hulls(
            design, cfg.control_box, cfg.subdivisions,
            inflation=cfg.inflation, samples_per_axis=cfg.samples_per_axis)
        if cfg.chebyshev_inflate:
            from . import stochastic
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
    from .artifacts import write_csv
    box = cfg.control_box
    pts = grid_points(box, cfg.verify_resolution)
    vals = controller.control_batch(pts)
    header = [f"x_{i+1}" for i in range(box.dim)] + ["u"]
    write_csv(_path(out, "controller_surface.csv"), header, [*pts.T, vals])
    if cfg.emit_svg and box.dim == 2:
        from . import viz
        xs = np.unique(pts[:, 0])
        ys = np.unique(pts[:, 1])
        viz.heatmap_svg(_path(out, "controller_surface.svg"), xs, ys,
                        vals.reshape(len(xs), len(ys)), title="control law")


def _metric(dim):
    """The parser of a synthesis report's metric P: a finite, exactly
    symmetric dim x dim matrix with a Cholesky factor, as synthesis writes
    it."""
    def parse(report):
        P = np.asarray(report["P"], dtype=float)
        if P.shape != (dim, dim):
            raise ValueError(f"P must be {dim}x{dim}, got shape {P.shape}")
        if not np.isfinite(P).all():
            raise ValueError("P must be finite")
        if not np.array_equal(P, P.T):
            raise ValueError("P must be symmetric")
        np.linalg.cholesky(P)  # LinAlgError, a ValueError, unless PD
        return P
    return parse


def _load_controller_and_P(cfg, out):
    """The law of controller.json and the metric P of
    synthesis_report.json, which synthesis also writes into the law as its
    ``metric``; ConfigError naming both files when they differ."""
    from .deriv_gp import DerivativeController
    law_path = _path(out, "controller.json")
    controller = _load_json(law_path, "controller artifact",
                            DerivativeController.from_dict)
    path = _path(out, "synthesis_report.json")
    P = _load_json(path, "synthesis report", _metric(cfg.dim))
    if controller.metric is None or not np.array_equal(controller.metric, P):
        raise ConfigError(f"malformed synthesis report {path}: its metric P "
                          f"is not the metric of the law in {law_path}")
    return controller, P


def cmd_verify(cfg: PipelineConfig, out, quiet=False):
    from . import verify_sim
    from .artifacts import write_csv, write_json
    controller, P = _load_controller_and_P(cfg, out)
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
        from . import stochastic, synthesis
        grid = grid_points(box, cfg.control_points)
        mrep = stochastic.moment_ies_check(
            rep.weight, grid,
            synthesis.closed_loop_jacobians(design, controller, grid),
            *stochastic.sigma_jacobian(drift_model, grid))
        write_json(_path(out, "moment_report.json"), mrep.to_dict())
        outputs["moment_eps_bar"] = mrep.eps_bar
    _say(quiet, f"verification: min margin {rep.min_margin:.6f}, "
         f"lambda {rep.lam:.6f}, consistent {rep.consistent}")
    return outputs


def _weighted_monotone_stats(states, W, box, floor=1e-10):
    """Per-step decrease of the weighted norm along consecutive ``states``
    while the state stays inside the certified region, as counts (steps
    that rose, steps counted); steps already at the numerical floor are
    skipped (ratios there are roundoff noise, not dynamics).  The counts of
    pieces that share their boundary states add up to the whole's."""
    from . import verify_sim
    d = verify_sim.weighted_norms(states, W)
    d0, d1 = d[:-1], d[1:]
    counted = box.contains_rows(states[:-1]) & (d0 >= floor)
    viol = np.count_nonzero(counted & (d1 > d0 * (1.0 + 1e-9)))
    return int(viol), int(np.count_nonzero(counted))


def _final_ratio(first, last):
    return float(np.linalg.norm(last) / max(np.linalg.norm(first), 1e-300))


def _rollouts(system, law, inits, horizon, directory, W, box, keep=False):
    """Roll the law out on the system from every initial state in lockstep,
    appending each chunk of steps to ``<directory>/traj_XX.csv`` as it
    arrives; the files land once the last chunk is written.  Returns each
    trajectory's initial state, final ratio, divergence flag and monotone
    stats of the weight ``W`` inside ``box``, and the trajectories when
    ``keep`` (else None)."""
    from . import verify_sim
    from .artifacts import atomic_files, csv_rows
    inits = np.atleast_2d(np.asarray(inits, dtype=float))
    count, n = inits.shape
    header = ",".join(["k"] + [f"x_{i+1}" for i in range(n)] + ["u"]) + "\n"
    names = [os.path.join(directory, f"traj_{i:02d}.csv")
             for i in range(count)]
    finals = [None] * count
    viol, inside = [0] * count, [0] * count
    diverged = np.zeros(count, dtype=bool)
    kept = []
    os.makedirs(directory, exist_ok=True)
    with atomic_files(names) as files:
        for fh in files:
            fh.write(header)
        for chunk in verify_sim.rollout_chunks(system, law, inits, horizon):
            for i, fh in enumerate(files):
                steps = chunk.steps(i)
                if not steps:
                    continue
                last = int(chunk.start + steps == chunk.ends[i])
                states = chunk.states[i, :steps + 1]
                # one input fewer than states: the last row's u cell stays
                # empty
                fh.write(csv_rows([
                    np.arange(chunk.start, chunk.start + steps + last),
                    *states[:steps + last].T, chunk.inputs[i, :steps]]))
                v, c = _weighted_monotone_stats(states, W, box)
                viol[i] += v
                inside[i] += c
                finals[i] = states[-1].copy()
            diverged = chunk.diverged
            if keep:
                kept.append(chunk)
    stats = [{"initial": x0.tolist(), "final_ratio": _final_ratio(x0, x),
              "diverged": bool(d), "monotone_violations": v,
              "steps_inside": c}
             for x0, x, d, v, c in zip(inits, finals, diverged, viol, inside)]
    return stats, (verify_sim.gather(kept) if keep else None)


def cmd_simulate(cfg: PipelineConfig, out, quiet=False):
    from .artifacts import write_json
    controller, P = _load_controller_and_P(cfg, out)
    system, box = cfg.system, cfg.control_box
    portrait = cfg.emit_svg and system.n == 2
    stats, trajs = _rollouts(system, controller, cfg.initial_states,
                             cfg.horizon, _path(out, "trajectories"),
                             W=np.linalg.inv(P), box=box, keep=portrait)
    summary = {"horizon": cfg.horizon, "trajectories": stats,
               "max_final_ratio": max(s["final_ratio"] for s in stats),
               "any_diverged": any(s["diverged"] for s in stats),
               "total_monotone_violations": sum(s["monotone_violations"]
                                                for s in stats)}
    if portrait:
        from . import viz
        viz.phase_portrait_svg(_path(out, "phase_portrait.svg"), trajs, box,
                               title="closed loop")
    write_json(_path(out, "sim_summary.json"), summary)
    _say(quiet, f"simulated {len(stats)} trajectories, max final ratio "
         f"{summary['max_final_ratio']:.4f}")
    return summary


def cmd_reproduce(cfg: PipelineConfig, out, quiet=False, times=None):
    from .artifacts import write_json
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
            from .artifacts import write_json
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
