"""CLI pipeline tests: artifact generation, exit codes, determinism of the
data command, and the polynomial-system config path."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from contragp import cli, lmi
from contragp.artifacts import read_csv
from contragp.deriv_gp import DerivativeController
from contragp.config import (PipelineConfig, default_oscillator_config,
                             default_sine1d_config)
from contragp.systems import Box


def small_osc_config():
    """Desk-size oscillator config for fast CLI tests."""
    cfg = default_oscillator_config()
    cfg["grids"] = {"model_points_per_axis": 7, "control_points_per_axis": 4,
                    "verify_resolution": 9}
    cfg["sim"] = {"horizon": 300, "initial_states": [[1.0, 1.0], [-1.0, 0.5]],
                  "baseline": True, "baseline_gain": [-49.8, 40.6]}
    return cfg


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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


# (key path the error must name, edit of small_osc_config)
MALFORMED = {
    "horizon": ("sim.horizon", set_key("sim.horizon", "abc")),
    "rho": ("solver.rho", set_key("solver.rho", "ten")),
    "fixed-row-key": ("learn.fixed_rows", set_key(
        "learn.fixed_rows", {"abc": {"linear": [1.0, 0.01]}})),
    "initial-states": ("sim.initial_states",
                       set_key("sim.initial_states", "boundary-x")),
    "baseline-without-gain": ("sim.baseline_gain",
                              lambda cfg: cfg["sim"].pop("baseline_gain")),
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
        assert "baseline" in sim
        assert os.path.exists(os.path.join(out, "trajectories/traj_00.csv"))

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
        cfg_d["sim"] = {"horizon": 50, "initial_states": [[0.0, 0.0]],
                        "baseline": False}
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
        cfg_d["sim"] = {"horizon": 50, "initial_states": [[0.0, 0.0]],
                        "baseline": False}
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


def _add_value_anchors(text):
    # the value-observation keys of a law conditioned on values as well as
    # gradients; loading it without them would certify a different law
    data = json.loads(text)
    data["value_points"] = [[0.0, 0.0]]
    data["value_weights"] = [0.5]
    return json.dumps(data)


# (command run on the corrupted artifact, file it names, corruption)
MALFORMED_ARTIFACTS = {
    "empty-data": ("learn", "data.csv", _rewrite("data.csv", lambda t: "")),
    "non-numeric-cell": ("learn", "data.csv",
                         _rewrite("data.csv", _replace_cell)),
    "ragged-row": ("learn", "data.csv", _rewrite("data.csv", _drop_cell)),
    "truncated-controller": ("verify", "controller.json",
                             _rewrite("controller.json",
                                      lambda t: t[:len(t) // 2])),
    "controller-without-weights": ("verify", "controller.json",
                                   _rewrite("controller.json",
                                            _drop_weights)),
    "controller-with-value-anchors": ("verify", "controller.json",
                                      _rewrite("controller.json",
                                               _add_value_anchors)),
}


class TestMalformedArtifacts:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ARTIFACTS))
    def test_malformed_artifact_exits_invalid(self, tmp_path, capsys, case):
        command, name, corrupt = MALFORMED_ARTIFACTS[case]
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg = write_cfg(tmp_path, cfg_d)
        out = tmp_path / "out"
        producer = "gen-data" if command == "learn" else "synth"
        assert cli.main([producer, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        corrupt(out)
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: malformed")
        assert name in err


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

        def tree(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}
        assert tree(out) == tree(plain)

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

    def test_learn_with_input_column(self, tmp_path):
        # external data with an applied-input column trains the augmented
        # kernel and reports per-component input gains
        cfg_d = default_sine1d_config()
        cfg = write_cfg(tmp_path, cfg_d)
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 3, size=(40, 1))
        U = rng.uniform(-1, 1, size=40)
        Y = X[:, 0] + 0.1 * np.sin(X[:, 0]) + 0.1 * U \
            + 0.005 * rng.standard_normal(40)
        lines = ["x_1,y_1,u"] + [f"{x},{y},{u}" for x, y, u in zip(X[:, 0], Y, U)]
        (out / "data.csv").write_text("\n".join(lines) + "\n")
        cfg_d["noise"]["sigma_y"] = [0.005]
        cfg = write_cfg(tmp_path, cfg_d, "cfg2.json")
        assert cli.main(["learn", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        artifact = json.load(open(out / "drift_model.json"))
        assert abs(artifact["input_gains"][0] - 0.1) < 0.05

    def test_emit_svg(self, tmp_path):
        cfg_d = small_osc_config()
        cfg_d["synthesis"]["model_source"] = "analytic"
        cfg_d["emit_svg"] = True
        cfg_d["sim"]["baseline"] = False
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
        from contragp.systems import Box
        from contragp.verify_sim import Trajectory

        def reference(traj, W, box, floor=1e-10):
            viol = inside = 0
            for k in range(traj.horizon):
                if not box.contains_rows(traj.states[k:k + 1])[0]:
                    continue
                x0, x1 = traj.states[k], traj.states[k + 1]
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
        traj = Trajectory(states, np.zeros(len(states) - 1))
        W = np.array([[2.0, 0.5], [0.5, 1.0]])
        box = Box.make([-1.0, -1.0], [1.0, 1.0])
        got = cli._weighted_monotone_stats(traj, W, box)
        assert got == reference(traj, W, box) == (2, 5)
