import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fading_capacity import (ChannelModel, DiscreteMeasure, McConfig, build_construction,
                             detection_report, fano, find_sufficient_K, log_density,
                             mutual_information)
from fading_capacity.cli import run
from fading_capacity.estimate import _mutual_information
from conftest import random_hermitian_pd

SRC = Path(__file__).resolve().parents[1] / "src"

SCALAR_CHANNEL = {"M": 1, "N": 1, "noise_var": 1.0,
                  "sigma": {"type": "isotropic", "var": 1.0}}


def dense_channel():
    sigma = random_hermitian_pd(np.random.default_rng(2024), 4)
    return {"M": 2, "N": 2, "noise_var": 1.0,
            "sigma": {"type": "dense", "re": sigma.real.tolist(), "im": sigma.imag.tolist()}}


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

    def test_needs_no_seed(self, tmp_path, capsys):
        # density draws nothing, so a config without a seed runs
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "x": {"re": [2.0]}, "outputs": [{"re": [1.0]}]})
        assert run(["density", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1

    def test_module_entry_point_matches_run(self, tmp_path, capsys):
        # python -m fading_capacity.cli must behave as run(): exit code, stdout, files
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 1, "x": {"re": [2.0], "im": [0.5]},
            "outputs": [{"re": [1.0], "im": [0.0]}, {"re": [0.0], "im": [0.5]}]})
        proc = subprocess.run(
            [sys.executable, "-m", "fading_capacity.cli", "density", "--config", cfg,
             "--out", str(tmp_path / "module")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert run(["density", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out
        assert read_outputs(tmp_path / "module") == read_outputs(tmp_path / "run")


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

    DENSE_MEASURE = {"atoms": [{"re": [0.0, 0.0]}, {"re": [1.0, -0.5], "im": [0.5, 1.0]}],
                     "weights": [0.5, 0.5]}

    def test_seed_flag_overrides(self, tmp_path, capsys):
        # a dense channel: on an isotropic one the value is a quadrature, and no seed moves it
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": dense_channel(), "seed": 7, "mc": {"samples": 2000},
            "measure": self.DENSE_MEASURE,
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


    def test_isotropic_value_is_the_exact_one_kkt_scan_takes(self, tmp_path, capsys,
                                                           scalar_model):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 7, "mc": {"samples": 2000},
            "measure": {"atoms": [{"re": [0.0]}, {"re": [3.0]}], "weights": [0.5, 0.5]},
        })
        assert run(["mi", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        got = json.loads(capsys.readouterr().out)["mutual_information"]
        mu = DiscreteMeasure([[0j], [3.0 + 0j]], [0.5, 0.5])
        want = _mutual_information(scalar_model, mu, McConfig(2000, seed=7))
        assert got == {"value": want.value, "std_error": 0.0, "samples": 0, "seed": 7}

    def test_dense_value_is_the_monte_carlo_estimate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": dense_channel(), "seed": 7, "mc": {"samples": 2000},
            "measure": self.DENSE_MEASURE,
        })
        assert run(["mi", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        got = json.loads(capsys.readouterr().out)["mutual_information"]
        model = ChannelModel.from_json(dense_channel())
        mu = DiscreteMeasure([[0j, 0j], [1.0 + 0.5j, -0.5 + 1.0j]], [0.5, 0.5])
        want = mutual_information(model, mu, McConfig(2000, seed=7))
        assert got == {"value": want.value, "std_error": want.std_error,
                       "samples": 4000, "seed": 7}


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

    def test_large_M_exits_cleanly(self, tmp_path, capsys):
        # (M-1)! is past double range from M = 172 on: lambda underflows to 0
        channel = {"M": 200, "N": 1, "noise_var": 1.0,
                   "sigma": {"type": "isotropic", "var": 1.0}}
        cfg = write_config(tmp_path, "cfg.json",
                           {"channel": channel, "seed": 3, "mc": {"samples": 1000},
                            "include_mi": False})
        assert run(["fano", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--n", "2", "--K", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["lambda_impl"] == summary["lambda_paper"] == 0.0
        assert summary["meets_lambda"] is True


    def test_dense_channel_exact_and_reproducible(self, tmp_path, capsys):
        # dense 2x2 fading: every detection is an exact hypoexponential mass (se 0)
        cfg = write_config(tmp_path, "cfg.json", {"channel": dense_channel(), "seed": 3,
                                                  "mc": {"samples": 2000}})
        lines, outs = [], []
        for d in ("o1", "o2"):
            assert run(["fano", "--config", cfg, "--out", str(tmp_path / d), "--n", "3"]) == 0
            lines.append(capsys.readouterr().out)
            outs.append(read_outputs(tmp_path / d))
        assert lines[0] == lines[1] and outs[0] == outs[1]
        summary = json.loads(lines[0])
        assert summary["meets_lambda"] is True
        rows = (tmp_path / "o1" / "fano_shells.csv").read_text().splitlines()
        assert rows[0] == "shell,r,bound,detection,se" and len(rows) == 4
        for row in rows[1:]:
            _, _, bound, detection, se = map(float, row.split(","))
            assert se == 0.0 and detection >= bound

    def test_searched_K_is_audited_once(self, tmp_path, capsys, monkeypatch, scalar_model):
        # without K the command takes the search's own construction and detections:
        # one detection pass per K tried and one MI, with the API's values
        cfg = write_config(tmp_path, "cfg.json", {"channel": SCALAR_CHANNEL, "seed": 3,
                                                  "mc": {"samples": 2000}})
        calls = {"shells": 0, "mi": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fano, "_shell_probabilities",
                            counted("shells", fano._shell_probabilities))
        monkeypatch.setattr(fano, "_mutual_information",
                            counted("mi", fano._mutual_information))
        assert run(["fano", "--config", cfg, "--out", str(tmp_path / "out"), "--n", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert calls == {"shells": round(math.log2(summary["K"])), "mi": 1}
        mc = McConfig(2000, seed=3)
        assert summary["K"] == find_sufficient_K(scalar_model, 3, mc)
        report = detection_report(scalar_model, build_construction(scalar_model, 3,
                                                                   summary["K"]), mc)
        assert summary["min_detection"] == report.min_detection
        assert summary["mutual_information"]["value"] == report.mutual_info.value


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

    def test_mass_above_one_is_config_error(self, tmp_path, capsys):
        # it escaped as lemma1_bound's ValueError, a traceback
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 1, "gamma": 1.0, "a": 1.0, "capacity": 0.5,
            "shell": {"r1_sq": 9.0, "r2_sq": 100.0}, "mass": 1.5,
        })
        assert run(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_needs_no_seed(self, tmp_path, capsys):
        # bounds is analytic: a config without a seed runs
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "gamma": 1.0, "a": 1.0, "capacity": 0.5,
            "shell": {"r1_sq": 9.0, "r2_sq": 100.0}, "mass": 0.5, "pi_bar": 10.0,
        })
        assert run(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["support_radius_sq"] > 0


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

    def test_grid_not_an_object_is_config_error(self, tmp_path, capsys):
        # it escaped as an AttributeError traceback
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 5, "gamma": 0.1, "a": 1.0, "capacity": 0.1,
            "measure": {"atoms": [{"re": [0.0]}], "weights": [1.0]}, "grid": 5,
        })
        assert run(["kkt-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith("config.grid: ")

    def test_default_capacity_is_exact_on_isotropic_channels(self, tmp_path, capsys):
        # without a capacity field, C is I(mu) by quadrature, so the support rows
        # (the last ones) satisfy sum_i w_i KKT(x_i) = gamma (P - a) + C - I = gamma (P - a)
        gamma, a, weights = 0.2, 1.0, [0.7, 0.3]
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 5, "mc": {"samples": 2000},
            "measure": {"atoms": [{"re": [0.0]}, {"re": [2.0]}], "weights": weights},
            "gamma": gamma, "a": a,
        })
        assert run(["kkt-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "kkt_scan.csv").read_text().splitlines()
        support = [tuple(map(float, r.split(","))) for r in rows[-2:]]
        assert [norm_sq for norm_sq, _, _ in support] == [0.0, 4.0]
        assert all(se == 0.0 for _, _, se in support)
        power = sum(w * norm_sq for w, (norm_sq, _, _) in zip(weights, support))
        total = sum(w * kkt for w, (_, kkt, _) in zip(weights, support))
        assert abs(total - gamma * (power - a)) <= 1e-12


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


ISO_3X2 = {"M": 3, "N": 2, "noise_var": 1.0, "sigma": {"type": "isotropic", "var": 1.0}}
SMALL_OPTIMIZER = {"max_atoms": 2, "outer_iterations": 1, "weight_iterations": 40,
                   "search_radius_sq": 12.0}


class TestIsotropicSeed:
    @pytest.mark.parametrize("command, fields", [
        ("mi", {"measure": {"atoms": [{"re": [0.0, 0.0]}, {"re": [1.5, 0.5], "im": [0.0, 1.0]}],
                            "weights": [0.6, 0.4]}}),
        ("kkt-scan", {"measure": {"atoms": [{"re": [0.0, 0.0]}, {"re": [2.0, 0.0]}],
                                  "weights": [0.7, 0.3]},
                      "gamma": 0.1, "a": 1.0, "grid": {"points_per_decade": 4, "decades": 2}}),
        ("optimize", {"a": 1.0, "optimizer": SMALL_OPTIMIZER}),
        ("capacity-curve", {"a_grid": [0.5, 1.0], "optimizer": SMALL_OPTIMIZER}),
        ("fano", {"n": 2}),
    ], ids=["mi", "kkt-scan", "optimize", "capacity-curve", "fano"])
    def test_missing_seed_writes_the_seed_zero_bytes(self, tmp_path, capsys, command, fields):
        # every integral these commands take on an isotropic channel is exact: nothing
        # is drawn, so a seed is not required, and a missing one is stamped as 0
        base = {"channel": ISO_3X2, "mc": {"samples": 1000}, **fields}
        outs = []
        for name, cfg in (("seedless", base), ("zero", {**base, "seed": 0})):
            path = write_config(tmp_path, f"{name}.json", cfg)
            assert run([command, "--config", path, "--out", str(tmp_path / name)]) == 0
            outs.append((capsys.readouterr().out, read_outputs(tmp_path / name)))
        assert outs[0] == outs[1]


class TestParserReuse:
    def test_error_exit_leaves_later_runs_unchanged(self, tmp_path, capsys):
        # the parser is built once per process; an argparse error exit between two
        # in-process runs leaves the second one's output equal to a fresh process's
        cfg = write_config(tmp_path, "cfg.json", {"channel": SCALAR_CHANNEL, "seed": 3,
                                                  "mc": {"samples": 1000}})
        argv = ["fano", "--config", cfg, "--n", "2", "--K", "2"]
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from fading_capacity.cli import run; "
                                   "sys.exit(run(sys.argv[1:]))",
             *argv, "--out", str(tmp_path / "fresh")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert fresh.returncode == 0, fresh.stderr
        assert run(argv + ["--out", str(tmp_path / "first")]) == 0
        assert run(["fano", "--config", cfg, "--n", "two"]) == 2
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "second")]) == 0
        assert capsys.readouterr().out == fresh.stdout
        assert read_outputs(tmp_path / "second") == read_outputs(tmp_path / "fresh")


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
        # a dense channel: on an isotropic one nothing is drawn, and the seed defaults to 0
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": dense_channel(), "measure": TestMiCommand.DENSE_MEASURE})
        assert run(["mi", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields", [
        ("kkt-scan", {"measure": TestMiCommand.DENSE_MEASURE, "gamma": 0.1, "a": 1.0,
                      "capacity": 0.2}),
        ("optimize", {"a": 1.0}),
        ("capacity-curve", {"a_grid": [1.0]}),
        ("fano", {"n": 2, "K": 2.0}),
    ], ids=["kkt-scan", "optimize", "capacity-curve", "fano"])
    def test_dense_commands_need_a_seed(self, tmp_path, capsys, command, fields):
        cfg = write_config(tmp_path, "cfg.json", {"channel": dense_channel(), **fields})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "message": "config.seed: missing required field"}

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 7 + (1 << 64)],
                             ids=["negative", "two-to-the-64", "seven-plus-two-to-the-64"])
    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys, seed, flag):
        # 2^64 and past it escaped run() as a ValueError traceback
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": dense_channel(), "measure": TestMiCommand.DENSE_MEASURE,
            "mc": {"samples": 1000}, **({} if flag else {"seed": seed})})
        argv = ["mi", "--config", cfg, "--out", str(tmp_path / "out")]
        assert run(argv + (["--seed", str(seed)] if flag else [])) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith("config.seed: ")

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
        ("mi", {"measure": {"atoms": [{"re": [True]}], "weights": [1.0]}}),
        ("mi", {"measure": {"atoms": [{"re": ["2.5"]}], "weights": [1.0]}}),
        ("mi", {"measure": {"atoms": [{"re": [0.0]}], "weights": ["1.0"]}}),
        ("mi", {"measure": {"atoms": [], "weights": []}}),
        ("optimize", {"a": 1.0, "mc": {"samples": 1000},
                      "optimizer": {"max_atoms": 2, "outer_iterations": 1,
                                    "power_tolerance": 0.02}}),
    ], ids=["atoms-not-a-list", "x-not-numbers", "x-wrong-dimension", "gamma-nan",
            "atom-bool", "atom-string", "weight-string", "atoms-empty",
            "optimizer-unknown-key"])
    def test_malformed_input_is_config_error(self, tmp_path, capsys, command, fields):
        cfg = write_config(tmp_path, "cfg.json",
                           {"channel": SCALAR_CHANNEL, "seed": 1, **fields})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("command, fields, message", [
        ("mi", {"mc": {"sample": 1000}}, "config.mc.sample: unknown field"),
        ("kkt-scan", {"gamma": 0.1, "a": 1.0, "capacity": 0.3, "mc": {"samples": 1000},
                      "grid": {"max_norm": 5.0}}, "config.grid.max_norm: unknown field"),
        ("fano", {"n": 2, "mc": {"samples": 1000}, "include_mi": "no"},
         "config.include_mi: expected a boolean, got str"),
        ("mi", {"mc": {"samples": 2000, "batch": 700}}, "config.mc.batch: unknown field"),
    ], ids=["mc-unknown-key", "grid-unknown-key", "include-mi-string", "mc-batch"])
    def test_misnamed_or_mistyped_field_is_named(self, tmp_path, capsys, command, fields,
                                                 message):
        # each ran on defaults: 200k samples, a scan to 48 a N, and the MI computed
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": SCALAR_CHANNEL, "seed": 1,
            "measure": {"atoms": [{"re": [0.0]}, {"re": [2.0]}], "weights": [0.5, 0.5]},
            **fields})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}

    @pytest.mark.parametrize("sigma, path", [
        ({"re": [[2.0, "1.0"], [1.0, 2.0]]}, "config.channel.sigma.re[0][1]: "),
        ({"re": [[2.0, 0.0], [1.0]]}, "config.channel.sigma.re[1]: "),
        ({"re": [[2.0, 0.0], [0.0, 2.0]], "im": [[0.0]]}, "config.channel.sigma.im: "),
    ], ids=["entry-string", "ragged-rows", "im-shape"])
    def test_malformed_dense_sigma_names_its_field(self, tmp_path, capsys, sigma, path):
        # the first and last ran (exit 0); ragged rows exited 2 with numpy's message
        channel = {"M": 1, "N": 2, "noise_var": 1.0, "sigma": {"type": "dense", **sigma}}
        cfg = write_config(tmp_path, "cfg.json", {
            "channel": channel, "x": {"re": [1.0, 0.0]}, "outputs": [{"re": [1.0]}]})
        assert run(["density", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith(path)
