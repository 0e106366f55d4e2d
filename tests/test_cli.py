"""CLI pipeline tests: artifact generation, exit codes, determinism of the
data command, and the polynomial-system config path."""

import json
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from contragp import cli, lmi, verify_sim, viz
from contragp.artifacts import read_csv, write_csv
from contragp.deriv_gp import DerivativeController
from contragp.errors import NumericalFailureError
from contragp.config import (PipelineConfig, default_oscillator_config,
                             default_sine1d_config)
from contragp.systems import Box
from contragp.verify_sim import Trajectory


def small_osc_config():
    """Desk-size oscillator config for fast CLI tests."""
    cfg = default_oscillator_config()
    cfg["grids"] = {"model_points_per_axis": 7, "control_points_per_axis": 4,
                    "verify_resolution": 9}
    cfg["sim"] = {"horizon": 300, "initial_states": [[1.0, 1.0], [-1.0, 0.5]]}
    return cfg


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def artifact_tree(root):
    """Every file under ``root``, relative path -> bytes."""
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def set_key(path, value):
    """A config edit that sets the dotted key ``path`` to ``value``."""
    def edit(cfg):
        *sections, leaf = path.split(".")
        node = cfg
        for key in sections:
            node = node.setdefault(key, {})
        node[leaf] = value
    return edit


def analytic_with(path):
    """A config edit that switches ``path`` on with the analytic source."""
    def edit(cfg):
        set_key(path, True)(cfg)
        cfg["synthesis"]["model_source"] = "analytic"
    return edit


def polynomial_with(edit):
    """A config edit that swaps in a 2-D polynomial system, then applies
    ``edit`` to its spec."""
    def apply(cfg):
        spec = {"n": 2, "b": [0.0, 1.0],
                "rows": [[{"exponents": [1, 0], "coef": 0.5}],
                         [{"exponents": [0, 1], "coef": 0.5}]]}
        edit(spec)
        cfg["system"] = {"polynomial": spec, "equilibrium": [0.0, 0.0]}
        cfg["synthesis"]["model_source"] = "analytic"
    return apply


NAN, INF = float("nan"), float("inf")

# (key path the error must name, edit of small_osc_config)
MALFORMED = {
    "horizon": ("sim.horizon", set_key("sim.horizon", "abc")),
    "rho": ("solver.rho", set_key("solver.rho", "ten")),
    "fixed-row-key": ("learn.fixed_rows", set_key(
        "learn.fixed_rows", {"abc": {"linear": [1.0, 0.01]}})),
    "initial-states": ("sim.initial_states",
                       set_key("sim.initial_states", "boundary-x")),
    # the cancel-then-linear baseline is retired: sim.baseline takes only
    # false, and its gain left the schema
    "baseline-on": ("sim.baseline must be false",
                    set_key("sim.baseline", True)),
    "baseline-gain": ("unknown config key 'sim.baseline_gain'",
                      set_key("sim.baseline_gain", [-49.8, 40.6])),
    "verify-resolution": ("grids.verify_resolution",
                          set_key("grids.verify_resolution", "x")),
    "sigma-p": ("noise.sigma_p", set_key("noise.sigma_p", "a")),
    "misspelled-solver-key": ("solver.width_scal",
                              set_key("solver.width_scal", 1e-6)),
    "removed-solver-key": ("solver.width_scale",
                           set_key("solver.width_scale", 1e-6)),
    "misspelled-top-level-key": ("emit_sgv", set_key("emit_sgv", True)),
    "moment-check-analytic": ("stochastic.moment_check",
                              analytic_with("stochastic.moment_check")),
    "chebyshev-inflate-analytic": (
        "stochastic.chebyshev_inflate",
        analytic_with("stochastic.chebyshev_inflate")),
    "misspelled-polynomial-key": (
        "system.polynomial: unknown key 'equilibrum'",
        polynomial_with(lambda spec: spec.update(equilibrum=[1.0, 1.0]))),
    "misspelled-polynomial-term-key": (
        "system.polynomial: unknown key 'rows[1][0].coeff'",
        polynomial_with(lambda spec: spec["rows"][1][0].update(coeff=3.0))),
    "polynomial-term-without-coef": (
        "system.polynomial: missing key 'rows[0][0].coef'",
        polynomial_with(lambda spec: spec["rows"][0][0].pop("coef"))),
    "polynomial-term-without-exponents": (
        "system.polynomial: missing key 'rows[1][0].exponents'",
        polynomial_with(lambda spec: spec["rows"][1][0].pop("exponents"))),
    # f(x*) = x* to 1e-8, as a model's own equilibrium is checked
    "equilibrium-not-a-fixed-point": (
        "system.equilibrium: declared equilibrium is not a fixed point",
        set_key("system.equilibrium", [1.0, 1.0])),
    "polynomial-equilibrium-not-a-fixed-point": (
        "system.equilibrium: declared equilibrium is not a fixed point",
        lambda cfg: (polynomial_with(lambda spec: None)(cfg),
                     set_key("system.equilibrium", [1.0, 0.0])(cfg))),
    # JSON's NaN and Infinity parse to floats; each is refused at load
    "control-domain-nan": ("domain.control", set_key(
        "domain.control", [[NAN, 2.0], [-2.0, 2.0]])),
    "dt-infinite": ("system.dt", set_key("system.dt", INF)),
    "kernel-beta-infinite": ("kernel: beta must be positive and finite",
                             set_key("kernel.beta", INF)),
    "kernel-sigma-mis-sized": ("kernel.sigma",
                               set_key("kernel.sigma", np.eye(3).tolist())),
    # the squared exponential is the one kernel; the retired dot-product
    # families and their degree are refused
    "kernel-family-linear": ("kernel.family must be 'squared-exponential'",
                             set_key("kernel.family", "linear")),
    "kernel-degree": ("unknown config key 'kernel.degree'",
                      set_key("kernel.degree", 3)),
    "sigma-y-infinite": ("noise.sigma_y", set_key("noise.sigma_y", [0.0, INF])),
    "sigma-p-infinite": ("noise.sigma_p", set_key("noise.sigma_p", INF)),
    "rho-infinite": ("solver.rho", set_key("solver.rho", INF)),
    "inflation-infinite": ("polytope.inflation",
                           set_key("polytope.inflation", INF)),
    "chebyshev-c-infinite": ("stochastic.chebyshev_c",
                             set_key("stochastic.chebyshev_c", INF)),
    "fixed-row-const-infinite": ("learn.fixed_rows", set_key(
        "learn.fixed_rows", {"0": {"linear": [1.0, 0.01], "const": INF}})),
    "fixed-row-linear-nan": ("learn.fixed_rows", set_key(
        "learn.fixed_rows", {"0": {"linear": [NAN, 0.01]}})),
    "polynomial-coef-nan": (
        "system.polynomial: rows[0][0].coef must be finite",
        polynomial_with(lambda spec: spec["rows"][0][0].update(coef=NAN))),
    "polynomial-b-infinite": (
        "system.polynomial: b must be finite",
        polynomial_with(lambda spec: spec.update(b=[0.0, INF]))),
}


class TestGenData:
    def test_reproducible_bytes_for_fixed_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out1),
                         "--quiet"]) == 0
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out2),
                         "--quiet"]) == 0
        assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()

    def test_row_count_and_noise_free_targets(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["noise"]["sigma_y"] = [0.0, 0.0]
        cfg = write_cfg(tmp_path, cfg_d)
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        header, table = read_csv(out / "data.csv")
        assert len(table) == 49
        from contragp import systems

        sysm = systems.oscillator()
        for row in table:
            np.testing.assert_allclose(row[2:4], sysm.drift(row[None, :2])[0],
                                       atol=1e-12)

    def test_seed_flag_changes_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["gen-data", "--config", cfg, "--out", str(out1), "--quiet"])
        cli.main(["gen-data", "--config", cfg, "--out", str(out2), "--seed",
                  "99", "--quiet"])
        assert (out1 / "data.csv").read_bytes() != (out2 / "data.csv").read_bytes()


class TestLearnAndSynth:
    def test_full_small_chain(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        out = str(tmp_path / "out")
        for cmd in ("gen-data", "learn", "synth", "verify", "simulate"):
            assert cli.main([cmd, "--config", cfg, "--out", out,
                             "--quiet"]) == 0, cmd
        artifact = json.load(open(os.path.join(out, "drift_model.json")))
        comp0 = artifact["drift_model"]["components"][0]
        assert comp0["type"] == "fixed-affine"
        assert comp0["linear"] == [1.0, 0.01]
        report = json.load(open(os.path.join(out, "synthesis_report.json")))
        assert report["eps"] > 0.0
        assert os.path.exists(os.path.join(out, "controller_surface.csv"))
        assert os.path.exists(os.path.join(out, "margins.csv"))
        ver = json.load(open(os.path.join(out, "verification.json")))
        assert ver["consistent"]
        sim = json.load(open(os.path.join(out, "sim_summary.json")))
        assert "baseline" not in sim
        assert os.path.exists(os.path.join(out, "trajectories/traj_00.csv"))
        assert not os.path.exists(os.path.join(out, "baseline"))

    def test_large_training_set_within_desk_budget(self, tmp_path):
        import time

        cfg_d = small_osc_config()
        cfg_d["grids"]["model_points_per_axis"] = 51  # 2601 samples
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        t0 = time.time()
        assert cli.main(["gen-data", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        assert cli.main(["learn", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        assert time.time() - t0 < 120.0
        _, table = read_csv(os.path.join(out, "data.csv"))
        assert len(table) == 2601

    def test_learn_without_data_exits_invalid(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        assert cli.main(["learn", "--config", cfg, "--out",
                         str(tmp_path / "empty"), "--quiet"]) == 3

    def test_empty_data_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        out = tmp_path / "out"
        out.mkdir()
        (out / "data.csv").write_text("x_1,x_2,y_1,y_2\n")
        assert cli.main(["learn", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3

    def test_non_finite_training_point_exits_invalid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, small_osc_config())
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "data.csv").read_text().splitlines()
        lines[1] = "," + lines[1].split(",", 1)[1]  # blank x_1 of row 1
        (out / "data.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["learn", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3
        assert "points contain NaN" in capsys.readouterr().err

    def test_mode_override_joint(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        assert cli.main(["synth", "--config", cfg, "--out", out, "--mode",
                         "joint", "--quiet"]) == 0
        rep = json.load(open(os.path.join(out, "synthesis_report.json")))
        assert rep["mode"] == "joint"
        assert rep["eps_p"] is None
        assert rep["eps"] > 0.0

    def test_infeasible_synthesis_exit_code(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["system"] = {
            "polynomial": {
                "n": 2,
                "b": [0.0, 1.0],
                "rows": [[{"exponents": [1, 0], "coef": 2.0}],
                         [{"exponents": [0, 1], "coef": 1.0}]],
            },
            "equilibrium": [0.0, 0.0],
        }
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg = write_cfg(tmp_path, cfg_d)
        assert cli.main(["synth", "--config", cfg, "--out",
                         str(tmp_path / "out"), "--quiet"]) == 2

    def test_verify_without_artifacts_exits_invalid(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        assert cli.main(["verify", "--config", cfg, "--out",
                         str(tmp_path / "nothing"), "--quiet"]) == 3

    def test_coincident_design_points_exit_numerical(self, tmp_path, capsys):
        # design points 1e-9 apart make K0 singular; sigma_p > 0 does not
        # rescue the design, since the law's weights are K0^{-1} g
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg_d["noise"]["sigma_p"] = 0.1
        cfg_d["domain"]["control"] = [[0.5, 0.5 + 1e-9], [0.5, 0.5 + 1e-9]]
        cfg_d["grids"]["control_points_per_axis"] = 2
        cfg = write_cfg(tmp_path, cfg_d)
        assert cli.main(["synth", "--config", cfg, "--out",
                         str(tmp_path / "out"), "--quiet"]) == 4
        assert "must factor without jitter" in capsys.readouterr().err

    def test_error_surfaces_stay_near_41_squared_rows(self, monkeypatch):
        # 201 points per axis on a line, 41 on a plane; a 3-D box asks for
        # about 41^2 rows in all, not 201^3
        class Requested(Exception):
            pass

        def grid_points(box, per_axis):
            raise Requested(per_axis)

        monkeypatch.setattr(cli, "grid_points", grid_points)
        counts = {}
        for n in (1, 2, 3):
            cfg = SimpleNamespace(model_box=Box.make([-1.0] * n, [1.0] * n))
            with pytest.raises(Requested) as req:
                cli._error_surfaces(cfg, None, None)
            counts[n] = req.value.args[0]
        assert counts[1] == 201 and counts[2] == 41
        assert 41 ** 2 / 2 <= counts[3] ** 3 <= 2 * 41 ** 2

    def test_gradient_noise_key_is_inert(self, tmp_path):
        # the law's weights are K0^{-1} g for any noise.sigma_p, and the
        # report no longer records it
        written = {}
        for sigma_p in (0.0, 0.1):
            cfg_d = small_osc_config()
            cfg_d["synthesis"]["model_source"] = "analytic"
            cfg_d["noise"]["sigma_p"] = sigma_p
            cfg = write_cfg(tmp_path, cfg_d, f"config-{sigma_p}.json")
            out = tmp_path / f"out-{sigma_p}"
            assert cli.main(["synth", "--config", cfg, "--out", str(out),
                             "--quiet"]) == 0
            written[sigma_p] = [(out / name).read_bytes() for name in
                                ("controller.json", "synthesis_report.json")]
        assert written[0.0] == written[0.1]

    def test_reproduction_solves_make_no_floor_stop(self, tmp_path,
                                                    monkeypatch):
        # the shipped reproduction's metric and gain solves converge
        # without the roundoff-floor exit, and the solver record in
        # synthesis_report.json carries both solves' paths and the gain
        # solve's final gap nu * mu, within the width, but not the floor
        # count
        solves = []
        solve = lmi.solve

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(lmi, "solve", recording)
        cfg = write_cfg(tmp_path, default_oscillator_config())
        out = str(tmp_path / "out")
        for command in ("gen-data", "learn", "synth"):
            assert cli.main([command, "--config", cfg, "--out", out,
                             "--quiet"]) == 0
        assert [sol.info["floor_stops"] for sol in solves] == [0, 0]
        rep = json.load(open(os.path.join(out, "synthesis_report.json")))
        diag = rep["diagnostics"]
        metric, gain = solves
        for key in ("newton_steps", "backtracks", "barrier_stages"):
            assert diag[key] == gain.info[key]
            assert diag[f"metric_{key}"] == metric.info[key]
        assert diag["final_mu"] == gain.info["final_mu"]
        assert diag["final_gap"] == gain.info["final_gap"]
        rho = default_oscillator_config()["solver"]["rho"]
        assert 0.0 < diag["final_gap"] <= 1e-6 * rho
        assert "floor_stops" not in diag
        assert not any(key.startswith("metric_final") for key in diag)

    def test_joint_route_takes_fewer_than_100_newton_steps(self, tmp_path,
                                                           monkeypatch):
        # the learned 7x7 joint problem of reproduce-oscillator --mode
        # joint: with the unscaled Newton step its path took 171 Newton
        # steps; the two-step P is feasible for the joint problem, so the
        # joint eps is at least the two-step eps, up to the width
        solves = []
        solve = lmi.solve

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(lmi, "solve", recording)
        cfg_d = default_oscillator_config()
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        eps = {}
        for commands, mode in ((("gen-data", "learn", "synth"), []),
                               (("synth",), ["--mode", "joint"])):
            for command in commands:
                assert cli.main([command, "--config", cfg, "--out", out,
                                 "--quiet"] + mode) == 0
            rep = json.load(open(os.path.join(out, "synthesis_report.json")))
            eps[rep["mode"]] = rep["eps"]
        joint = solves[-1]
        assert len(solves) == 3 and joint.z.shape == (3 + 49 * 2,)
        assert joint.status == "optimal"
        assert joint.info["newton_steps"] < 100
        assert eps["joint"] >= eps["two-step"] - 1e-6 * cfg_d["solver"]["rho"]

    @pytest.mark.parametrize("route, commands, path", [
        pytest.param("two-step", ("gen-data", "learn", "synth"),
                     [(40, 19), (31, 21)], id="two-step"),
        pytest.param("dense", ("gen-data", "learn", "synth"),
                     [(38, 18), (31, 20)], id="dense"),
        pytest.param("polytopic", ("synth",), [(40, 22), (34, 27)],
                     id="polytopic")])
    def test_shipped_solves_keep_their_newton_paths(self, tmp_path,
                                                    monkeypatch, route,
                                                    commands, path):
        # (Newton steps, backtracks) of the metric and the gain solve on
        # the shipped reproduction, its sigma_p = 0.1 variant on 6x6 design
        # points, and the analytic polytopic route on 8x8 cells
        solves = []
        solve = lmi.solve

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(lmi, "solve", recording)
        cfg = default_oscillator_config()
        if route == "dense":
            cfg["noise"]["sigma_p"] = 0.1
            cfg["grids"]["control_points_per_axis"] = 6
        elif route == "polytopic":
            cfg["mode"] = "polytopic"
            cfg["synthesis"]["model_source"] = "analytic"
            cfg["polytope"] = {"subdivisions": 8, "inflation": 0.0,
                               "samples_per_axis": 5}
        cfg = write_cfg(tmp_path, cfg)
        for command in commands:
            assert cli.main([command, "--config", cfg, "--out",
                             str(tmp_path / "out"), "--quiet"]) == 0
        assert [(sol.info["newton_steps"], sol.info["backtracks"])
                for sol in solves] == path

    @pytest.mark.parametrize("route, commands", [
        pytest.param("two-step", ("gen-data", "learn", "synth"),
                     id="two-step"),
        pytest.param("polytopic", ("synth",), id="polytopic")])
    def test_shipped_solves_factor_each_point_once(self, tmp_path,
                                                   monkeypatch, route,
                                                   commands):
        # every barrier point is assembled and factored once: the start
        # point, then each line-search trial (one per Newton step and one
        # per backtrack; a floor stop is a step whose one trial fails). A
        # feasible trial assembles every block group, an infeasible one
        # stops at its first failing group. Derivatives come from an
        # accepted trial's factors, once per accepted step and once at the
        # start; a new centering starts at the last one's point and
        # factors nothing
        assembled, trials, derivs_calls, records = [], [], [0], []
        assemble, factor, derivs, solve = (lmi._Workspace.assemble,
                                           lmi._factor, lmi._derivs,
                                           lmi.solve)

        def counting_assemble(group, w):
            assembled.append((id(group), w.tobytes()))
            return assemble(group, w)

        def counting_factor(ws, w):
            before = len(assembled)
            point = factor(ws, w)
            trials.append((point is not None, len(assembled) - before))
            return point

        def counting_derivs(ws, factors):
            derivs_calls[0] += 1
            return derivs(ws, factors)

        def recording(problem, *args, **kwargs):
            del assembled[:], trials[:]
            derivs_calls[0] = 0
            sol = solve(problem, *args, **kwargs)
            records.append((sol, len(lmi._block_groups(problem)),
                            len(set(assembled)), list(trials),
                            derivs_calls[0]))
            return sol

        monkeypatch.setattr(lmi._Workspace, "assemble",
                            staticmethod(counting_assemble))
        monkeypatch.setattr(lmi, "_factor", counting_factor)
        monkeypatch.setattr(lmi, "_derivs", counting_derivs)
        monkeypatch.setattr(lmi, "solve", recording)
        cfg = default_oscillator_config()
        if route == "polytopic":
            cfg["mode"] = "polytopic"
            cfg["synthesis"]["model_source"] = "analytic"
            cfg["polytope"] = {"subdivisions": 8, "inflation": 0.0,
                               "samples_per_axis": 5}
        cfg = write_cfg(tmp_path, cfg)
        for command in commands:
            assert cli.main([command, "--config", cfg, "--out",
                             str(tmp_path / "out"), "--quiet"]) == 0
        assert len(records) == 2
        for sol, groups, distinct, trials, derivs_made in records:
            info = sol.info
            assert info["barrier_stages"] > 1
            assert len(trials) == 1 + info["newton_steps"] + info["backtracks"]
            assert distinct == sum(made for _, made in trials)
            assert all(made == groups if feasible else 1 <= made <= groups
                       for feasible, made in trials)
            assert derivs_made == (1 + info["newton_steps"]
                                   - info["floor_stops"])

    def test_simulate_from_equilibrium_is_constant(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg_d["sim"] = {"horizon": 50, "initial_states": [[0.0, 0.0]]}
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        assert cli.main(["synth", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        _, table = read_csv(os.path.join(out, "trajectories/traj_00.csv"))
        np.testing.assert_allclose(table[:, 1:3], 0.0, atol=1e-12)

    def test_learned_source_law_vanishes_at_configured_equilibrium(
            self, tmp_path):
        # the learned design model carries the configured equilibrium, so
        # synthesis zeroes the law there as on the analytic source
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "learned"
        cfg_d["sim"] = {"horizon": 50, "initial_states": [[0.0, 0.0]]}
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        for command in ("gen-data", "learn", "synth", "simulate"):
            assert cli.main([command, "--config", cfg, "--out", out,
                             "--quiet"]) == 0
        eq = PipelineConfig(cfg_d).equilibrium
        law = DerivativeController.from_dict(
            json.load(open(os.path.join(out, "controller.json"))))
        np.testing.assert_array_equal(law.offset_point, eq)
        assert law.control_batch([eq])[0] == 0.0
        _, table = read_csv(os.path.join(out, "trajectories/traj_00.csv"))
        np.testing.assert_allclose(table[:, 1:3], 0.0, atol=1e-12)


def _rewrite(name, edit):
    """An artifact corruption: ``edit`` maps the text of ``name`` to the
    text written back."""
    def apply(out):
        path = out / name
        path.write_text(edit(path.read_text()))
    return apply


def _replace_cell(text):
    lines = text.splitlines()
    lines[3] = "abc," + lines[3].split(",", 1)[1]
    return "\n".join(lines) + "\n"


def _drop_cell(text):
    lines = text.splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


def _drop_weights(text):
    data = json.loads(text)
    del data["weights"]
    return json.dumps(data)


def _add_column(name, value):
    """A data.csv corruption: one more column ``name`` holding ``value``."""
    def edit(text):
        header, *rows = text.splitlines()
        return "\n".join([f"{header},{name}"]
                         + [f"{row},{value}" for row in rows]) + "\n"
    return edit


def _add_drift_inputs(text):
    # the applied inputs of an input-augmented model, whose posterior has
    # another Gram matrix; loading it without them would use a different
    # posterior
    data = json.loads(text)
    data["drift_model"]["inputs"] = [0.5] * len(data["drift_model"]["points"])
    return json.dumps(data)


def _add_value_anchors(text):
    # the value-observation keys of a law conditioned on values as well as
    # gradients; loading it without them would certify a different law
    data = json.loads(text)
    data["value_points"] = [[0.0, 0.0]]
    data["value_weights"] = [0.5]
    return json.dumps(data)


def _set_kernel(path, edit):
    """A JSON-artifact corruption: ``edit`` applied to the kernel dict at
    the key ``path`` (dotted, list indices as numbers)."""
    def apply(text):
        data = json.loads(text)
        node = data
        for key in path.split("."):
            node = node[int(key) if key.isdigit() else key]
        edit(node)
        return json.dumps(data)
    return apply


def _set_metric(P):
    """A synthesis-report corruption: the metric replaced by ``P``."""
    def edit(text):
        data = json.loads(text)
        data["P"] = P
        return json.dumps(data)
    return edit


# metrics that verify and simulate must refuse: not positive definite, the
# wrong shape, and a non-symmetric one whose lower triangle factors
BAD_METRICS = {"indefinite": [[1.0, 2.0], [2.0, 1.0]],
               "3x3": np.eye(3).tolist(),
               "vector": [1.0, 1.0],
               "non-symmetric": [[2.0, 1.5], [-1.5, 2.0]]}


# (command run on the corrupted artifact, file it names, corruption)
MALFORMED_ARTIFACTS = {
    "empty-data": ("learn", "data.csv", _rewrite("data.csv", lambda t: "")),
    "non-numeric-cell": ("learn", "data.csv",
                         _rewrite("data.csv", _replace_cell)),
    "ragged-row": ("learn", "data.csv", _rewrite("data.csv", _drop_cell)),
    "data-with-input-column": ("learn", "data.csv",
                               _rewrite("data.csv", _add_column("u", 0.5))),
    "data-with-extra-column": ("learn", "data.csv",
                               _rewrite("data.csv", _add_column("note", 1))),
    "drift-model-with-inputs": ("synth", "drift_model.json",
                                _rewrite("drift_model.json",
                                         _add_drift_inputs)),
    "truncated-controller": ("verify", "controller.json",
                             _rewrite("controller.json",
                                      lambda t: t[:len(t) // 2])),
    "controller-without-weights": ("verify", "controller.json",
                                   _rewrite("controller.json",
                                            _drop_weights)),
    "controller-with-value-anchors": ("verify", "controller.json",
                                      _rewrite("controller.json",
                                               _add_value_anchors)),
    # the retired dot-product kernel families
    "controller-with-polynomial-kernel": (
        "verify", "controller.json", _rewrite("controller.json", _set_kernel(
            "kernel", lambda k: k.update(family="polynomial", degree=3)))),
    "drift-model-with-linear-kernel": (
        "synth", "drift_model.json", _rewrite("drift_model.json", _set_kernel(
            "drift_model.components.1.kernel",
            lambda k: k.update(family="linear")))),
}
MALFORMED_ARTIFACTS.update({
    f"{kind}-metric-{command}": (command, "synthesis_report.json",
                                 _rewrite("synthesis_report.json",
                                          _set_metric(P)))
    for kind, P in BAD_METRICS.items() for command in ("verify", "simulate")})


PIPELINE = ("gen-data", "learn", "synth", "verify", "simulate")


class TestMalformedArtifacts:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ARTIFACTS))
    def test_malformed_artifact_exits_invalid(self, tmp_path, capsys, case):
        command, name, corrupt = MALFORMED_ARTIFACTS[case]
        cfg = write_cfg(tmp_path, small_osc_config())
        out = tmp_path / "out"
        for producer in PIPELINE[:PIPELINE.index(command)]:
            assert cli.main([producer, "--config", cfg, "--out", str(out),
                             "--quiet"]) == 0, producer
        corrupt(out)
        before = artifact_tree(out)
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: malformed")
        assert name in err
        assert artifact_tree(out) == before


class TestConfigValidation:
    def test_unwritable_output_dir_exits_invalid(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o555)
        cfg = write_cfg(tmp_path, small_osc_config())
        try:
            rc = cli.main(["gen-data", "--config", cfg, "--out",
                           str(blocked / "sub"), "--quiet"])
        finally:
            blocked.chmod(0o755)
        if os.geteuid() == 0:
            pytest.skip("permission bits do not bind for root")
        assert rc == 3

    def test_bad_json_exits_invalid(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["gen-data", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 3

    def test_wrong_version_rejected(self, tmp_path):
        cfg = small_osc_config()
        cfg["version"] = 99
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["gen-data", "--config", path, "--out",
                         str(tmp_path / "o"), "--quiet"]) == 3

    def test_missing_config_flag(self, tmp_path):
        assert cli.main(["gen-data", "--out", str(tmp_path / "o"),
                         "--quiet"]) == 3

    def test_invalid_mode_rejected(self):
        cfg = small_osc_config()
        cfg["mode"] = "imaginary"
        with pytest.raises(Exception):
            PipelineConfig(cfg)

    def test_polytopic_without_polytope_section_validates(self):
        cfg = small_osc_config()
        cfg["mode"] = "polytopic"
        cfg.pop("polytope", None)
        assert PipelineConfig(cfg).subdivisions == 4

    def test_domain_system_dimension_mismatch_rejected(self):
        from contragp.errors import ConfigError

        cfg = small_osc_config()
        cfg["domain"]["model"] = [[-3.0, 3.0]]
        with pytest.raises(ConfigError, match="dimension"):
            PipelineConfig(cfg)

    @pytest.mark.parametrize("system", ["builtin", "polynomial"])
    def test_model_equilibrium_kept_without_the_key(self, tmp_path, system):
        # the oscillator's own zeros, or the polynomial spec's equilibrium
        cfg = small_osc_config()
        cfg["synthesis"]["model_source"] = "analytic"
        if system == "polynomial":
            polynomial_with(lambda spec: spec.update(equilibrium=[0.0, 0.0])
                            )(cfg)
        cfg["system"].pop("equilibrium")
        parsed = PipelineConfig(cfg)
        np.testing.assert_array_equal(parsed.system.equilibrium, [0.0, 0.0])
        np.testing.assert_array_equal(parsed.equilibrium, [0.0, 0.0])
        # so synthesis still zeroes the law there
        out = str(tmp_path / "out")
        assert cli.main(["synth", "--config", write_cfg(tmp_path, cfg),
                         "--out", out, "--quiet"]) == 0
        law = DerivativeController.from_dict(
            json.load(open(os.path.join(out, "controller.json"))))
        np.testing.assert_array_equal(law.offset_point, [0.0, 0.0])
        assert law.control_batch([[0.0, 0.0]])[0] == 0.0

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_config_exits_invalid_before_any_artifact(
            self, tmp_path, capsys, case):
        key, edit = MALFORMED[case]
        cfg = small_osc_config()
        edit(cfg)
        out = tmp_path / "out"
        rc = cli.main(["reproduce-oscillator", "--config",
                       write_cfg(tmp_path, cfg), "--out", str(out),
                       "--quiet"])
        assert rc == 3
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_baseline_false_is_inert(self, tmp_path):
        # sim.baseline keeps false, its one value, written as the
        # benchmark's small config writes it: simulate runs, writes no
        # baseline/ and the bytes of a config without the key
        trees = {}
        for name, extra in (("off", {"baseline": False}), ("absent", {})):
            cfg = small_osc_config()
            cfg["synthesis"]["model_source"] = "analytic"
            cfg["sim"].update(horizon=50, **extra)
            path = write_cfg(tmp_path, cfg, f"{name}.json")
            out = tmp_path / name
            for command in ("synth", "simulate"):
                assert cli.main([command, "--config", path, "--out",
                                 str(out), "--quiet"]) == 0, command
            assert not (out / "baseline").exists()
            trees[name] = artifact_tree(out)
        assert "sim_summary.json" in {p.name for p in trees["off"]}
        assert trees["off"] == trees["absent"]

    def test_seed_flag_is_validated_like_the_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config",
                         write_cfg(tmp_path, small_osc_config()), "--out",
                         str(out), "--seed", "-1", "--quiet"]) == 3
        assert "seeds.data" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_are_written_before_the_parse(self, tmp_path):
        """--seed fills a missing seeds section and --mode replaces a bad
        mode, so the file is only checked with the flags applied."""
        cfg = small_osc_config()
        cfg.pop("seeds")
        cfg["mode"] = "imaginary"
        path = write_cfg(tmp_path, cfg)
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert cli.main(["gen-data", "--config", path, "--out", str(out),
                         "--seed", "3", "--mode", "joint", "--quiet"]) == 0
        cfg.update(seeds={"data": 3}, mode="joint")
        assert cli.main(["gen-data", "--config", write_cfg(tmp_path, cfg,
                                                           "ref.json"),
                         "--out", str(ref), "--quiet"]) == 0
        assert (out / "data.csv").read_bytes() == (ref / "data.csv").read_bytes()

    def test_seed_flag_on_a_malformed_seeds_section(self, tmp_path, capsys):
        cfg = small_osc_config()
        cfg["seeds"] = [7]
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out), "--seed", "3", "--quiet"]) == 3
        assert "seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_initial_states_default_to_16_boundary_states(
            self, tmp_path):
        cfg = small_osc_config()
        cfg["sim"].pop("initial_states")
        out = tmp_path / "out"
        assert cli.main(["reproduce-oscillator", "--config",
                         write_cfg(tmp_path, cfg), "--out", str(out),
                         "--quiet"]) == 0
        sim = json.load(open(out / "sim_summary.json"))
        assert len(sim["trajectories"]) == 16
        assert len(os.listdir(out / "trajectories")) == 16

    def test_missing_initial_states_required_off_two_dimensions(
            self, tmp_path, capsys):
        cfg = default_sine1d_config()
        cfg["sim"].pop("initial_states")
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out), "--quiet"]) == 3
        assert "sim.initial_states" in capsys.readouterr().err
        assert not out.exists()


class TestTimings:
    def test_stage_times_written_outside_the_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, small_osc_config())
        out, plain = tmp_path / "out", tmp_path / "plain"
        times = tmp_path / "times" / "reproduce.json"
        assert cli.main(["reproduce-oscillator", "--config", cfg, "--out",
                         str(out), "--timings", str(times), "--quiet"]) == 0
        data = json.load(open(times))
        assert sorted(data) == ["gen_data", "learn", "simulate", "synth",
                                "verify"]
        for entry in data.values():
            assert sorted(entry) == ["cpu_s", "wall_s"]
            assert entry["wall_s"] >= 0.0 and entry["cpu_s"] >= 0.0
        # the flag leaves the artifact tree as it is without it
        assert cli.main(["reproduce-oscillator", "--config", cfg, "--out",
                         str(plain), "--quiet"]) == 0
        assert artifact_tree(out) == artifact_tree(plain)

    def test_one_command_times_its_stage(self, tmp_path):
        times = tmp_path / "times.json"
        assert cli.main(["gen-data", "--config",
                         write_cfg(tmp_path, small_osc_config()), "--out",
                         str(tmp_path / "out"), "--timings", str(times),
                         "--quiet"]) == 0
        assert list(json.load(open(times))) == ["gen_data"]

    @pytest.mark.parametrize("inside", ["times.json", "sub/times.json", "."])
    def test_path_inside_out_exits_invalid(self, tmp_path, capsys, inside):
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config",
                       write_cfg(tmp_path, small_osc_config()), "--out",
                       str(out), "--timings", str(out / inside), "--quiet"])
        assert rc == 3
        assert "--timings" in capsys.readouterr().err
        assert not out.exists()


class TestSinePolytopic:
    def test_sine_polytopic_chain(self, tmp_path):
        cfg_d = default_sine1d_config()
        cfg_d["sim"]["horizon"] = 100
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        assert cli.main(["synth", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        assert cli.main(["verify", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        rep = json.load(open(os.path.join(out, "synthesis_report.json")))
        assert rep["mode"] == "polytopic"
        assert "vertex_margins" in rep

    def test_probabilistic_hull_inflation_chain(self, tmp_path):
        # learned scalar model + hull inflation at the configured tail level:
        # the artifact records the joint confidence of the certificate
        cfg_d = default_sine1d_config()
        cfg_d["synthesis"]["model_source"] = "learned"
        cfg_d["polytope"]["subdivisions"] = 8
        cfg_d["noise"]["sigma_y"] = [0.005]
        cfg_d["stochastic"] = {"moment_check": False, "chebyshev_c": 8.0,
                               "chebyshev_inflate": True}
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        for cmd in ("gen-data", "learn", "synth", "verify"):
            assert cli.main([cmd, "--config", cfg, "--out", out,
                             "--quiet"]) == 0, cmd
        rep = json.load(open(os.path.join(out, "synthesis_report.json")))
        assert rep["diagnostics"]["hull_confidence"] == pytest.approx(
            (1 - 1 / 8.0) ** 1)
        ver = json.load(open(os.path.join(out, "verification.json")))
        assert ver["lambda"] < 1.0

    def test_moment_check_path(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["stochastic"] = {"moment_check": True, "chebyshev_c": 40.0}
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        for cmd in ("gen-data", "learn", "synth", "verify"):
            assert cli.main([cmd, "--config", cfg, "--out", out,
                             "--quiet"]) == 0, cmd
        rep = json.load(open(os.path.join(out, "moment_report.json")))
        assert "eps_bar" in rep and "passed" in rep

    def test_emit_svg(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg_d["emit_svg"] = True
        cfg = write_cfg(tmp_path, cfg_d)
        out = str(tmp_path / "out")
        assert cli.main(["synth", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", out,
                         "--quiet"]) == 0
        assert os.path.exists(os.path.join(out, "controller_surface.svg"))
        assert os.path.exists(os.path.join(out, "phase_portrait.svg"))


class TestSimulationStats:
    def test_weighted_monotone_stats_match_reference_loop(self):
        def reference(states, W, box, floor=1e-10):
            viol = inside = 0
            for k in range(len(states) - 1):
                if not box.contains_rows(states[k:k + 1])[0]:
                    continue
                x0, x1 = states[k], states[k + 1]
                d0 = np.sqrt(max(x0 @ W @ x0, 0.0))
                if d0 < floor:
                    continue
                inside += 1
                if np.sqrt(max(x1 @ W @ x1, 0.0)) > d0 * (1.0 + 1e-9):
                    viol += 1
            return viol, inside

        # starts outside the box, rises twice inside (the second time onto
        # the boundary), then sinks below the 1e-10 floor, rises from there
        # and leaves the box
        states = np.array([[2.0, 0.0], [0.5, 0.5], [0.4, 0.3], [0.45, 0.3],
                           [1.0, -1.0], [0.1, 0.0], [1e-11, 0.0],
                           [3e-11, 0.0], [0.0, 0.0], [1.5, 0.0],
                           [0.2, 0.1]])
        W = np.array([[2.0, 0.5], [0.5, 1.0]])
        box = Box.make([-1.0, -1.0], [1.0, 1.0])
        assert reference(states, W, box) == (2, 5)
        # chunks share their boundary states: the steps 0-3, 3-6 and 6-10,
        # whose first boundary sits between the two rises and whose second
        # is below the floor, count what the whole trajectory counts
        for bounds in ([0, 10], [0, 3, 6, 10], [0, 1, 2, 7, 9, 10]):
            counts = [cli._weighted_monotone_stats(states[a:b + 1], W, box)
                      for a, b in zip(bounds, bounds[1:])]
            assert tuple(map(sum, zip(*counts))) == (2, 5)


def whole_trajectory_artifacts(cfg, out, directory):
    """The closed-loop artifacts of ``simulate`` as written from whole
    trajectories: the stepwise oracle's rollouts, each table written by
    one ``write_csv`` call, the stats of each whole trajectory, and the
    phase portrait.  Returns {name: bytes} and the summary's trajectory
    stats."""
    from test_verify_sim import stepwise_rollouts

    law = DerivativeController.from_dict(
        json.load(open(os.path.join(out, "controller.json"))))
    W = np.linalg.inv(law.metric)
    states, inputs, ends, diverged = stepwise_rollouts(
        cfg.system, law, cfg.initial_states, cfg.horizon)
    header = ["k", "x_1", "x_2", "u"]
    files, stats, trajs = {}, [], []
    for i, x0 in enumerate(cfg.initial_states):
        traj = Trajectory(states[i, :ends[i] + 1], inputs[i, :ends[i]],
                          diverged=bool(diverged[i]))
        trajs.append(traj)
        name = f"trajectories/traj_{i:02d}.csv"
        write_csv(os.path.join(directory, name), header,
                  [np.arange(traj.horizon + 1), *traj.states.T, traj.inputs])
        viol, inside = cli._weighted_monotone_stats(traj.states, W,
                                                    cfg.control_box)
        stats.append({"diverged": traj.diverged,
                      "final_ratio": float(
                          np.linalg.norm(traj.states[-1])
                          / max(np.linalg.norm(traj.states[0]), 1e-300)),
                      "initial": [float(v) for v in x0],
                      "monotone_violations": viol, "steps_inside": inside})
    viz.phase_portrait_svg(os.path.join(directory, "phase_portrait.svg"),
                           trajs, cfg.control_box, title="closed loop")
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, directory)] = open(path, "rb").read()
    return files, stats


def simulated_files(out):
    """{path under out: bytes} of everything ``simulate`` writes."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            rel = os.path.relpath(os.path.join(root, name), out)
            if (rel.startswith("trajectories")
                    or rel in ("phase_portrait.svg", "sim_summary.json")):
                files[rel] = open(os.path.join(out, rel), "rb").read()
    return files


class TestChunkedSimulate:
    """``simulate`` streams its rollouts in chunks of ``verify_sim.CHUNK``
    steps; its artifacts are those written from whole trajectories."""

    @pytest.fixture(scope="class")
    def designed(self, tmp_path_factory):
        """gen-data, learn and synth of the small oscillator config with
        the portraits on and a third initial state, (5, 0), outside the
        certified box, from which the law's rollout diverges at step 17."""
        out = tmp_path_factory.mktemp("chunked")
        cfg = small_osc_config()
        cfg["emit_svg"] = True
        cfg["sim"]["initial_states"].append([5.0, 0.0])
        path = write_cfg(out, cfg)
        for command in ("gen-data", "learn", "synth"):
            assert cli.main([command, "--config", path, "--out",
                             str(out / "run"), "--quiet"]) == 0
        return cfg, out / "run"

    @staticmethod
    def simulate(designed, tmp_path, name, horizon):
        cfg_d, run = designed
        cfg_d = json.loads(json.dumps(cfg_d))
        cfg_d["sim"]["horizon"] = horizon
        out = tmp_path / name
        shutil.copytree(run, out)
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg_d),
                         "--out", str(out), "--quiet"]) == 0
        return PipelineConfig(cfg_d), str(out)

    @pytest.mark.parametrize("horizon", [20, 21, 22])
    def test_chunks_of_7_write_the_one_chunk_bytes(self, designed, tmp_path,
                                                   monkeypatch, horizon):
        # horizons 3 * 7 - 1, 3 * 7 and 3 * 7 + 1; the third trajectory
        # diverges at step 17, inside the third chunk
        trees = {}
        for chunk in (7, horizon):
            monkeypatch.setattr(verify_sim, "CHUNK", chunk)
            _, out = self.simulate(designed, tmp_path, f"chunk{chunk}",
                                   horizon)
            trees[chunk] = simulated_files(out)
        assert trees[7] == trees[horizon]
        assert {"phase_portrait.svg",
                "trajectories/traj_02.csv"} <= set(trees[7])
        summary = json.loads(trees[7]["sim_summary.json"])
        assert [t["diverged"] for t in summary["trajectories"]] \
            == [False, False, True]
        assert trees[7]["trajectories/traj_02.csv"].count(b"\n") == 1 + 18
        assert not any(name.startswith(".tmp-") for name in
                       os.listdir(os.path.join(out, "trajectories")))

    @pytest.mark.parametrize("horizon", [20, 21, 22])
    def test_artifacts_match_the_whole_trajectory_writer(
            self, designed, tmp_path, monkeypatch, horizon):
        monkeypatch.setattr(verify_sim, "CHUNK", 7)
        cfg, out = self.simulate(designed, tmp_path, "out", horizon)
        want, stats = whole_trajectory_artifacts(cfg, out, tmp_path / "ref")
        got = simulated_files(out)
        assert {name: got[name] for name in want} == want
        summary = json.loads(got["sim_summary.json"])
        assert summary["trajectories"] == stats

    def test_failed_run_leaves_no_trajectory_file(self, designed, tmp_path,
                                                  monkeypatch):
        # the rollouts fail after their first chunk: the rows written so
        # far never land
        chunks = verify_sim.rollout_chunks

        def failing(*args, **kwargs):
            yield next(chunks(*args, **kwargs))
            raise NumericalFailureError("the rollout failed")

        monkeypatch.setattr(verify_sim, "CHUNK", 7)
        monkeypatch.setattr(verify_sim, "rollout_chunks", failing)
        cfg_d, run = designed
        out = tmp_path / "out"
        shutil.copytree(run, out)
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg_d),
                         "--out", str(out), "--quiet"]) == 4
        assert os.listdir(out / "trajectories") == []
        assert not (out / "sim_summary.json").exists()

    def test_peak_memory_does_not_grow_with_the_horizon(
            self, designed, tmp_path, monkeypatch):
        # the 2 rollouts that converge run 2 and 20 chunks of 50 steps;
        # written from whole trajectories, the second run peaked at 8.5
        # times the first
        import tracemalloc

        monkeypatch.setattr(verify_sim, "CHUNK", 50)
        cfg_d, run = designed
        cfg_d = json.loads(json.dumps(cfg_d))
        cfg_d["emit_svg"] = False
        out = str(tmp_path / "out")
        shutil.copytree(run, out)
        peaks = {}
        for chunks in (2, 2, 20):  # the first run warms up
            cfg_d["sim"]["horizon"] = 50 * chunks
            cfg = PipelineConfig(cfg_d)
            tracemalloc.start()
            try:
                cli.cmd_simulate(cfg, out, quiet=True)
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20] <= 1.25 * peaks[2], peaks


class TestMetricAgreement:
    """verify and simulate read the metric P of synthesis_report.json and
    the law of controller.json, which carries the P it was designed for;
    when the two differ they exit 3, name both files, and write
    nothing."""

    @staticmethod
    def _drop_law_metric(text):
        data = json.loads(text)
        del data["metric"]
        return json.dumps(data)

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("corrupt", ["report-identity", "law-without"])
    def test_disagreeing_metrics_exit_invalid(self, tmp_path, capsys,
                                              command, corrupt):
        cfg = write_cfg(tmp_path, small_osc_config())
        out = tmp_path / "out"
        for producer in ("gen-data", "learn", "synth"):
            assert cli.main([producer, "--config", cfg, "--out", str(out),
                             "--quiet"]) == 0, producer
        if corrupt == "report-identity":
            # a valid metric, not the law's
            _rewrite("synthesis_report.json",
                     _set_metric(np.eye(2).tolist()))(out)
        else:
            _rewrite("controller.json", self._drop_law_metric)(out)
        before = sorted(p.name for p in out.rglob("*"))
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: malformed")
        assert "synthesis_report.json" in err and "controller.json" in err
        assert sorted(p.name for p in out.rglob("*")) == before


NUMPY_ONLY_RUN = r"""
import sys
sys.path.insert(0, sys.argv[1])
from contragp import cli
cli.load_config(sys.argv[2])
for command in ("gen-data", "learn", "synth", "verify", "simulate"):
    code = cli.main([command, "--config", sys.argv[3], "--out", sys.argv[4],
                     "--quiet"])
    assert code == 0, (command, code)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _fresh_python(script, *args):
    """The last stdout line of ``script`` run in a fresh interpreter with
    the package's source directory as its first argument."""
    import subprocess
    import sys

    import contragp
    proc = subprocess.run(
        [sys.executable, "-c", script,
         os.path.dirname(os.path.dirname(contragp.__file__)), *args],
        capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


class TestNumpyOnly:
    def test_pipeline_never_imports_scipy(self, tmp_path):
        # a fresh interpreter imports the package, loads the default config
        # and runs every stage on a short horizon with numpy alone
        cfg = small_osc_config()
        cfg["sim"]["horizon"] = 30
        assert _fresh_python(
            NUMPY_ONLY_RUN,
            write_cfg(tmp_path, default_oscillator_config(), "default.json"),
            write_cfg(tmp_path, cfg), str(tmp_path / "out")) == "[]"
        assert (tmp_path / "out" / "sim_summary.json").exists()


START_UP = r"""
import sys
sys.path.insert(0, sys.argv[1])
from contragp import cli
cli.load_config(sys.argv[2])
print(sorted(name for name in sys.modules
             if name == "numpy.random" or name.startswith("contragp.")))
"""

ONE_COMMAND = r"""
import sys
sys.path.insert(0, sys.argv[1])
from contragp import cli
code = cli.main(sys.argv[2:])
print(code, "numpy.random" in sys.modules,
      any(f"contragp.{name}" in sys.modules for name in ("lmi", "synthesis")))
"""

STAGE_MODULES = ("lmi", "synthesis", "stochastic", "verify_sim", "viz",
                 "deriv_gp")


class TestStartUpImports:
    """Loading a config imports no stage module, and of the commands only
    ``gen-data`` (its seeded data noise) loads ``numpy.random`` and only
    ``synth`` and ``verify`` load the solver (``synthesis`` and ``lmi``).
    Each command runs alone in a fresh interpreter, so one that uses a
    stage module it does not import fails here."""

    @pytest.fixture(scope="class")
    def reproduced(self, tmp_path_factory):
        # the optional branches on: the portraits and heatmap (viz) and the
        # moment check (stochastic) run too
        tmp = tmp_path_factory.mktemp("start_up")
        cfg = small_osc_config()
        cfg["sim"]["horizon"] = 30
        cfg["emit_svg"] = True
        cfg["stochastic"]["moment_check"] = True
        path = write_cfg(tmp, cfg)
        out = tmp / "out"
        assert cli.main(["reproduce-oscillator", "--config", path, "--out",
                         str(out), "--quiet"]) == 0
        return path, out

    def test_config_check_imports_no_stage_module(self, tmp_path):
        loaded = _fresh_python(START_UP, write_cfg(
            tmp_path, default_oscillator_config()))
        assert "'numpy.random'" not in loaded
        for name in STAGE_MODULES:
            assert f"'contragp.{name}'" not in loaded

    @pytest.mark.parametrize("command, random, solver", [
        ("gen-data", True, False), ("learn", False, False),
        ("synth", False, True), ("verify", False, True),
        ("simulate", False, False)])
    def test_each_command_alone(self, reproduced, command, random, solver):
        path, out = reproduced
        assert _fresh_python(ONE_COMMAND, command, "--config", path, "--out",
                             str(out), "--quiet") == f"0 {random} {solver}"
