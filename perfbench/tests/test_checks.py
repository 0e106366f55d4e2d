"""The output checks accept the program's artifacts and reject tampered ones.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
The fixtures run small versions of the benchmark's workloads (a 4x4 design
grid, short rollouts, 3x3 polytopic cells), so the module takes a few
seconds.
"""

import copy
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from contragp import cli, synthesis, systems  # noqa: E402
from contragp.config import default_oscillator_config  # noqa: E402

RHO = 10.0


def _small_config():
    cfg = default_oscillator_config()
    cfg["grids"].update(model_points_per_axis=9, control_points_per_axis=4,
                        verify_resolution=11)
    cfg["stochastic"]["moment_check"] = True
    cfg["sim"].update(horizon=300, initial_states="boundary-4",
                      baseline=False)
    return cfg


def _run(cfg, out, *commands):
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    for cmd in commands:
        assert cli.main([cmd, "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """Artifacts of a small reproduction with the moment check on."""
    out = tmp_path_factory.mktemp("learned")
    cfg = _small_config()
    _run(cfg, out, "reproduce-oscillator")
    return out, cfg


@pytest.fixture(scope="module")
def polytopic(tmp_path_factory):
    out = tmp_path_factory.mktemp("polytopic")
    cfg = _small_config()
    cfg["mode"] = "polytopic"
    cfg["synthesis"]["model_source"] = "analytic"
    cfg["stochastic"]["moment_check"] = False
    cfg["polytope"] = {"subdivisions": 3, "inflation": 0.0,
                       "samples_per_axis": 5}
    _run(cfg, out, "synth", "verify")
    hulls = synthesis.build_hulls(systems.oscillator(),
                                  systems.Box.make([-2, -2], [2, 2]), 3,
                                  inflation=0.0, samples_per_axis=5)
    return out, cfg, hulls


@pytest.fixture
def copy_of(tmp_path):
    def make(src):
        dst = tmp_path / "copy"
        shutil.copytree(src, dst)
        return dst
    return make


def _load(out, name):
    with open(out / name) as fh:
        return json.load(fh)


def _dump(out, name, data):
    with open(out / name, "w") as fh:
        json.dump(data, fh)


def _learned_parts(out):
    report = _load(out, "synthesis_report.json")
    law = checks.SELaw(_load(out, "controller.json"))
    drift = checks.LearnedDrift(_load(out, "drift_model.json")["drift_model"])
    Js = checks.fd_jacobian(drift.drift, np.asarray(report["points"]))
    return report, law, drift, Js


B = np.array([0.0, 0.01])


# -- the checks accept the program's output ---------------------------------


def test_learned_artifacts_pass(learned):
    out, cfg = learned
    report, law, drift, Js = _learned_parts(out)
    P = np.asarray(report["P"])
    trajs = checks.read_trajectories(str(out))
    moment_pts = checks.grid([-2, -2], [2, 2], 4)
    outcomes = [
        checks.check_law_surface(str(out), law),
        checks.check_law_trajectories(trajs, law, checks.Oscillator(0.01),
                                      300),
        checks.check_grid(str(out), P, drift.drift, B, law,
                          np.random.default_rng(0)),
        checks.check_metric(report, RHO, Js, B),
        checks.check_point_margins(report, drift.drift, B, law),
        checks.check_gain_optimum(report, Js, B, RHO),
        checks.check_moment(str(out), P, drift, B, law, moment_pts),
    ]
    assert [o.status for o in outcomes] == ["pass"] * len(outcomes), outcomes


def test_polytopic_artifacts_pass(polytopic):
    out, cfg, hulls = polytopic
    report = _load(out, "synthesis_report.json")
    law = checks.SELaw(_load(out, "controller.json"))
    osc = checks.Oscillator(0.01)
    lo, hi = checks.hull_intervals(osc, [-2, -2], [2, 2], 3, 5, 0.0)
    assert checks.check_hulls(hulls.lo, hulls.hi, lo, hi).status == "pass"
    assert checks.check_vertex_margins(report, lo, hi, B, law).status == "pass"
    vertices = np.concatenate([checks.hull_vertices(lo[i], hi[i])
                               for i in range(len(lo))])
    assert checks.check_metric(report, RHO, vertices, B).status == "pass"


# -- and reject tampered output ---------------------------------------------


def test_gain_checks_reject_moved_eps(learned):
    out, _ = learned
    report, law, drift, Js = _learned_parts(out)
    moved = copy.deepcopy(report)
    moved["eps"] += 1e-3
    assert checks.check_gain_optimum(moved, Js, B, RHO).status == "wrong"
    assert checks.check_point_margins(moved, drift.drift, B,
                                      law).status == "wrong"


def test_metric_check_rejects_moved_eps_p(learned):
    out, _ = learned
    report, _, _, Js = _learned_parts(out)
    moved = copy.deepcopy(report)
    moved["eps_p"] -= 1e-3
    assert checks.check_metric(moved, RHO, Js, B).status == "wrong"


@pytest.mark.parametrize("column", [1, 3])
def test_trajectory_check_rejects_one_altered_row(learned, copy_of, column):
    out = copy_of(learned[0])
    path = out / "trajectories" / "traj_02.csv"
    lines = path.read_text().splitlines()
    cells = lines[120].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6))
    lines[120] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    law = checks.SELaw(_load(out, "controller.json"))
    trajs = checks.read_trajectories(str(out))
    outcome = checks.check_law_trajectories(trajs, law,
                                            checks.Oscillator(0.01), 300)
    assert outcome.status == "wrong"


def test_convergence_check_rejects_a_stalled_rollout(learned):
    trajs = checks.read_trajectories(str(learned[0]))
    trajs[1] = trajs[1].copy()
    trajs[1][-1, 1:3] = trajs[1][0, 1:3] * 0.5
    assert checks.check_convergence(trajs).status == "wrong"


def test_grid_check_rejects_a_flipped_verdict(learned, copy_of):
    out = copy_of(learned[0])
    summary = _load(out, "summary.json")
    summary["grid_certified"] = not summary["grid_certified"]
    _dump(out, "summary.json", summary)
    report, law, drift, _ = _learned_parts(out)
    outcome = checks.check_grid(str(out), np.asarray(report["P"]),
                                drift.drift, B, law, np.random.default_rng(0))
    assert outcome.status == "wrong"


def test_surface_check_rejects_an_altered_value(learned, copy_of):
    out = copy_of(learned[0])
    path = out / "controller_surface.csv"
    lines = path.read_text().splitlines()
    cells = lines[40].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[40] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    law = checks.SELaw(_load(out, "controller.json"))
    assert checks.check_law_surface(str(out), law).status == "wrong"


def test_moment_check_rejects_a_moved_margin(learned, copy_of):
    out = copy_of(learned[0])
    rep = _load(out, "moment_report.json")
    rep["margins"][5] += 1e-4
    _dump(out, "moment_report.json", rep)
    report, law, drift, _ = _learned_parts(out)
    outcome = checks.check_moment(str(out), np.asarray(report["P"]), drift, B,
                                  law, checks.grid([-2, -2], [2, 2], 4))
    assert outcome.status == "wrong"


def test_hull_check_rejects_a_shifted_bound(polytopic):
    _, _, hulls = polytopic
    lo, hi = checks.hull_intervals(checks.Oscillator(0.01), [-2, -2], [2, 2],
                                   3, 5, 0.0)
    shifted = hulls.hi.copy()
    shifted[4, 1, 0] += 1e-9
    assert checks.check_hulls(hulls.lo, shifted, lo, hi).status == "wrong"


def test_vertex_check_rejects_a_moved_margin(polytopic):
    out, _, _ = polytopic
    report = _load(out, "synthesis_report.json")
    report["vertex_margins"][2][1] -= 1e-3
    law = checks.SELaw(_load(out, "controller.json"))
    lo, hi = checks.hull_intervals(checks.Oscillator(0.01), [-2, -2], [2, 2],
                                   3, 5, 0.0)
    assert checks.check_vertex_margins(report, lo, hi, B,
                                       law).status == "wrong"


def test_cell_region_check_fails_an_unstable_loop():
    """With no feedback the oscillator expands near the origin, so the
    certificate cannot hold and the operation fails."""
    law = checks.SELaw({"kernel": {"family": "squared-exponential",
                                   "beta": 1.0, "sigma": [[1, 0], [0, 1]]},
                        "points": [[0.0, 0.0]], "weights": [0.0, 0.0]})
    outcome = checks.check_cell_region(np.eye(2), checks.Oscillator(0.01),
                                       law, [-2, -2], [2, 2], 2, per_axis=5)
    assert outcome.status == "failed"
