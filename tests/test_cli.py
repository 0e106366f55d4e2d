"""CLI pipeline tests: artifact generation, exit codes, determinism of the
data command, and the polynomial-system config path."""

import json
import os

import numpy as np
import pytest

from contragp import cli
from contragp.artifacts import read_csv
from contragp.config import (PipelineConfig, default_oscillator_config,
                             default_sine1d_config)


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
            np.testing.assert_allclose(row[2:4], sysm.drift(row[:2]),
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
