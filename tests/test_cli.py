import json
import math

import numpy as np
import pytest

from fading_capacity import DiscreteMeasure, log_density
from fading_capacity.cli import run

SCALAR_CHANNEL = {"M": 1, "N": 1, "noise_var": 1.0,
                  "sigma": {"type": "isotropic", "var": 1.0}}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestDensityCommand:
    def test_values_match_api(self, tmp_path, capsys, scalar_model):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 1,
            "x": {"re": [2.0], "im": [0.0]},
            "outputs": [{"re": [1.0], "im": [0.0]},
                        {"re": [0.0], "im": [0.5]}],
        })
        assert run(["density", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 2
        rows = (tmp_path / "out" / "density.csv").read_text().splitlines()
        assert rows[0] == "index,log_density,se"
        got = float(rows[1].split(",")[1])
        assert got == pytest.approx(log_density(scalar_model, [1.0 + 0j],
                                                [2.0 + 0j]), abs=1e-12)


class TestMiCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 7,
            "mc": {"samples": 2000},
            "measure": {"atoms": [{"re": [0.0], "im": [0.0]},
                                  {"re": [3.0], "im": [0.0]}],
                        "weights": [0.5, 0.5]},
        })
        outs = []
        lines = []
        for d in ("o1", "o2"):
            assert run(["mi", "--config", cfg, "--out", str(tmp_path / d)]) == 0
            lines.append(capsys.readouterr().out)
            outs.append(read_outputs(tmp_path / d))
        assert lines[0] == lines[1]
        assert outs[0] == outs[1]

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 7, "mc": {"samples": 2000},
            "measure": {"atoms": [{"re": [0.0], "im": [0.0]},
                                  {"re": [3.0], "im": [0.0]}],
                        "weights": [0.5, 0.5]},
        })
        assert run(["mi", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(["mi", "--config", cfg, "--out", str(tmp_path / "b"),
                    "--seed", "8"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["mutual_information"]["seed"] == 7
        assert second["mutual_information"]["seed"] == 8
        assert first["mutual_information"]["value"] != \
            second["mutual_information"]["value"]


class TestFanoCommand:
    def test_scalar_summary_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json",
                           {"channel": SCALAR_CHANNEL, "seed": 3,
                            "mc": {"samples": 2000}})
        assert run(["fano", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--n", "1", "--K", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        expected = math.exp(-32.0 / 17.0) - math.exp(-512.0 / 17.0)
        assert summary["min_detection"] == pytest.approx(expected, abs=1e-6)
        assert summary["lambda_impl"] == pytest.approx(0.5 * math.exp(-2), abs=1e-6)
        assert summary["meets_lambda"] is True
        shells = (tmp_path / "out" / "fano_shells.csv").read_text().splitlines()
        assert shells[0] == "shell,r,bound,detection,se"
        assert len(shells) == 2


class TestFanoMargins:
    def test_summary_reports_margins_and_headroom(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json",
                           {"channel": SCALAR_CHANNEL, "seed": 3,
                            "mc": {"samples": 2000}, "include_mi": False})
        assert run(["fano", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--n", "1", "--K", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        margin = summary["min_detection"] - summary["lambda_impl"]
        assert summary["margins_impl"] == summary["margins_paper"] == [margin]
        assert summary["log_cap_headroom"] == pytest.approx(700.0 - 2.0 * math.log(2.0))

class TestBoundsCommand:
    def test_slope_error_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 1,
            "gamma": 1.0, "a": 1.0, "capacity": 0.5,
            "shell": {"r1_sq": 9.0, "r2_sq": 100.0}, "mass": 0.5,
        })
        assert run(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--gamma", "0"]) == 1
        err = capsys.readouterr().err
        assert "SlopeNonPositive" in err

    def test_finite_bound_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 1,
            "gamma": 1.0, "a": 1.0, "capacity": 0.5,
            "shell": {"r1_sq": 9.0, "r2_sq": 100.0}, "mass": 0.5,
            "pi_bar": 10.0,
        })
        assert run(["bounds", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["support_radius_sq"] > 0
        assert (tmp_path / "out" / "bounds.csv").exists()


class TestKktScanCommand:
    def test_summary_matches_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 5, "mc": {"samples": 1000},
            "measure": {"atoms": [{"re": [0.0], "im": [0.0]},
                                  {"re": [2.42], "im": [0.0]}],
                        "weights": [0.83, 0.17]},
            "gamma": 0.1135, "a": 1.0, "capacity": 0.1955,
            "grid": {"max_norm_sq": 9.0, "points_per_decade": 4, "decades": 2},
        })
        assert run(["kkt-scan", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        rows = (tmp_path / "out" / "kkt_scan.csv").read_text().splitlines()
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert summary["minimum"] == pytest.approx(min(values), abs=1e-12)

    def test_default_grid_reaches_the_optimizer_scan_cap(self, tmp_path, capsys):
        # a rerun of an optimize result must scan all the optimizer certified:
        # squared norms up to 48 * a * N
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 5, "mc": {"samples": 1000},
            "measure": {"atoms": [{"re": [0.0], "im": [0.0]},
                                  {"re": [2.42], "im": [0.0]}],
                        "weights": [0.83, 0.17]},
            "gamma": 0.1135, "a": 2.0, "capacity": 0.1955,
        })
        assert run(["kkt-scan", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "kkt_scan.csv").read_text().splitlines()
        norms = [float(r.split(",")[0]) for r in rows[1:]]
        assert max(norms) == pytest.approx(48.0 * 2.0 * 1, rel=1e-12)


class TestOptimizeCommands:
    def test_optimize_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 11, "a": 1.0,
            "mc": {"samples": 2000},
            "optimizer": {"max_atoms": 2, "outer_iterations": 1,
                          "weight_iterations": 40, "search_radius_sq": 12.0},
        })
        assert run(["optimize", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["gamma"] >= 0.0
        measure = json.loads((tmp_path / "out" / "optimum_measure.json").read_text())
        mu = DiscreteMeasure.from_json(measure)
        assert mu.n_atoms >= 1

    def test_capacity_curve_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 12, "a_grid": [0.5, 1.0],
            "mc": {"samples": 2000},
            "optimizer": {"max_atoms": 2, "outer_iterations": 1,
                          "weight_iterations": 40, "search_radius_sq": 12.0},
        })
        assert run(["capacity-curve", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["points"]) == 2
        rows = (tmp_path / "out" / "capacity_curve.csv").read_text().splitlines()
        assert rows[0] == "a,capacity,se,gamma,converged"
        assert len(rows) == 3


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate", "--config", "x.json"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["mi", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "channel": [,]\n}')
        assert run(["mi", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL,
            "measure": {"atoms": [{"re": [0.0], "im": [0.0]}],
                        "weights": [1.0]},
        })
        assert run(["mi", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": {"M": 0, "N": 1, "noise_var": 1.0,
                        "sigma": {"type": "isotropic", "var": 1.0}},
            "seed": 1,
        })
        assert run(["mi", "--config", cfg]) == 2
        assert "channel.M" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields", [
        ("mi", {"measure": {"atoms": 5, "weights": [1.0]}}),
        ("density", {"x": {"re": ["abc"]}, "outputs": [{"re": [1.0]}]}),
        ("density", {"x": {"re": [1.0, 2.0]}, "outputs": [{"re": [1.0]}]}),
        ("bounds", {"gamma": math.nan, "a": 1.0, "capacity": 0.5, "mass": 0.5,
                    "shell": {"r1_sq": 9.0, "r2_sq": 100.0}}),
    ], ids=["atoms-not-a-list", "x-not-numbers", "x-wrong-dimension", "gamma-nan"])
    def test_malformed_input_is_config_error(self, tmp_path, capsys, command, fields):
        cfg = write_config(tmp_path, "cfg.json",
                           {"channel": SCALAR_CHANNEL, "seed": 1, **fields})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
