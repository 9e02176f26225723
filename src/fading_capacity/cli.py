"""Batch front end: JSON configs in, CSV tables and JSON summaries out.

Subcommands: density | mi | kkt-scan | optimize | capacity-curve | fano | bounds.
Identical config bytes and seed produce byte-identical outputs; every
Monte Carlo row carries its standard-error column, exact values carry se = 0.
Exit codes: 0 success, 1 domain errors (e.g. a non-closing support bound),
2 config or IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channel import (ChannelModel, conditional_entropy, input_norm_sq,
                      log_density)
from .errors import AnalysisError, ConfigError
from .estimate import McConfig, mutual_information
from .fano import build_construction, detection_report, find_sufficient_K
from .kkt import KktContext, kkt_scan, lemma1_bound, radial_scan_grid, \
    support_radius_bound, kkt_lower_bound
from .measure import DiscreteMeasure, PowerConstraint
from .optimizer import (_SEARCH_RADIUS_FACTOR, OptimizerConfig, capacity_curve,
                        optimize_measure)

_COMMANDS = ("density", "mi", "kkt-scan", "optimize", "capacity-curve",
             "fano", "bounds")


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        _fail(f"{path}.{key}", "missing required field")
    return cfg[key]


def _number(value, path: str, positive: bool = False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"expected a number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):  # json reads NaN and Infinity
        _fail(path, f"expected a finite number, got {value}")
    if positive and not value > 0.0:
        _fail(path, f"expected a positive number, got {value}")
    return value


def _integer(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"expected >= {minimum}, got {value}")
    return value


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return cfg


def _channel_from_config(cfg: dict) -> ChannelModel:
    spec = _require(cfg, "channel", "config")
    if not isinstance(spec, dict):
        _fail("config.channel", "expected an object")
    M = _integer(_require(spec, "M", "config.channel"), "config.channel.M", 1)
    N = _integer(_require(spec, "N", "config.channel"), "config.channel.N", 1)
    _number(_require(spec, "noise_var", "config.channel"),
            "config.channel.noise_var", positive=True)
    sigma = _require(spec, "sigma", "config.channel")
    if not isinstance(sigma, dict) or sigma.get("type") not in ("isotropic", "dense"):
        _fail("config.channel.sigma", 'expected {"type":"isotropic"|"dense", ...}')
    if sigma["type"] == "isotropic":
        _number(_require(sigma, "var", "config.channel.sigma"),
                "config.channel.sigma.var", positive=True)
    else:
        re = _require(sigma, "re", "config.channel.sigma")
        if not isinstance(re, list) or len(re) != M * N:
            _fail("config.channel.sigma.re", f"expected {M * N} rows")
    try:
        return ChannelModel.from_json(spec)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"config.channel: {exc}") from exc


def _vector_from_config(obj, path: str, dim: int) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        _fail(path, 'expected {"re":[...], "im":[...]}')
    parts = []
    for key in ("re", "im"):
        value = [0.0] * dim if obj.get(key) is None else obj[key]
        if not isinstance(value, list) or len(value) != dim:
            _fail(f"{path}.{key}", f"expected a list of {dim} numbers")
        parts.append([_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(value)])
    return np.array(parts[0]) + 1j * np.array(parts[1])


def _measure_from_config(cfg: dict, model: ChannelModel) -> DiscreteMeasure:
    spec = _require(cfg, "measure", "config")
    if isinstance(spec, str):
        spec = _load_config(spec)
    if not isinstance(spec, dict) or "atoms" not in spec or "weights" not in spec:
        _fail("config.measure", 'expected {"atoms":[...], "weights":[...]} or a file path')
    try:
        mu = DiscreteMeasure.from_json(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"config.measure: {exc}") from exc
    if mu.dim != model.N:
        _fail("config.measure", f"atom dimension {mu.dim} != channel N {model.N}")
    return mu


def _mc_from_config(cfg: dict, args) -> McConfig:
    spec = cfg.get("mc", {})
    if not isinstance(spec, dict):
        _fail("config.mc", "expected an object")
    samples = spec.get("samples", 200_000)
    samples = _integer(samples, "config.mc.samples", 100)
    if args.samples is not None:
        samples = args.samples
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        _fail("config.seed", "a seed is required (config field or --seed flag)")
    seed = _integer(seed, "config.seed", 0)
    batch = spec.get("batch")
    if batch is not None:
        batch = _integer(batch, "config.mc.batch", 1)
        batch = min(batch, samples)
    try:
        return McConfig(samples=samples, seed=seed, batch=batch)
    except ValueError as exc:
        raise ConfigError(f"config.mc: {exc}") from exc


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _write_json(out_dir: Path, name: str, obj) -> None:
    (out_dir / name).write_text(_json_bytes(obj) + "\n")


def _write_csv(out_dir: Path, name: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    (out_dir / name).write_text("\n".join(lines) + "\n")


def _estimate_dict(est) -> dict:
    return {"value": est.value, "std_error": est.std_error,
            "samples": est.samples, "seed": est.seed}


def _cmd_density(cfg, model, mc, out_dir):
    x = _vector_from_config(_require(cfg, "x", "config"), "config.x", model.N)
    outputs = _require(cfg, "outputs", "config")
    if not isinstance(outputs, list) or not outputs:
        _fail("config.outputs", "expected a nonempty list of output vectors")
    rows = []
    for i, obj in enumerate(outputs):
        y = _vector_from_config(obj, f"config.outputs[{i}]", model.M)
        rows.append((i, log_density(model, y, x), 0.0))
    _write_csv(out_dir, "density.csv", ["index", "log_density", "se"], rows)
    summary = {"command": "density", "count": len(rows),
               "conditional_entropy": conditional_entropy(model, x),
               "input_norm_sq": input_norm_sq(x)}
    _write_json(out_dir, "density_summary.json", summary)
    return summary


def _cmd_mi(cfg, model, mc, out_dir):
    mu = _measure_from_config(cfg, model)
    est = mutual_information(model, mu, mc)
    _write_csv(out_dir, "mi.csv", ["value", "se", "samples"],
               [(est.value, est.std_error, est.samples)])
    summary = {"command": "mi", "mutual_information": _estimate_dict(est),
               "atoms": mu.n_atoms}
    _write_json(out_dir, "mi_summary.json", summary)
    return summary


def _context_from_config(cfg, model, mc, mu):
    gamma = _number(_require(cfg, "gamma", "config"), "config.gamma")
    a = _number(_require(cfg, "a", "config"), "config.a", positive=True)
    if "capacity" in cfg:
        capacity = _number(cfg["capacity"], "config.capacity")
    else:
        if mu is None:
            _fail("config.capacity", "required when no measure is given")
        capacity = max(mutual_information(model, mu, mc).value, 0.0)
    try:
        return KktContext(gamma=gamma, a=a, capacity=capacity)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def _cmd_kkt_scan(cfg, model, mc, out_dir):
    mu = _measure_from_config(cfg, model)
    ctx = _context_from_config(cfg, model, mc, mu)
    grid_spec = cfg.get("grid", {})
    # by default scan as far as optimize certifies, so a rerun checks it all
    max_norm_sq = _number(grid_spec.get("max_norm_sq",
                                        _SEARCH_RADIUS_FACTOR * ctx.a * model.N),
                          "config.grid.max_norm_sq", positive=True)
    ppd = _integer(grid_spec.get("points_per_decade", 64),
                   "config.grid.points_per_decade", 1)
    decades = _integer(grid_spec.get("decades", 4), "config.grid.decades", 1)
    dirs = _integer(grid_spec.get("directions", 16), "config.grid.directions", 0)
    grid = radial_scan_grid(model, max_norm_sq, ppd, decades, dirs, mc.seed)
    report = kkt_scan(model, mu, ctx, grid, mc)
    rows = [(p.norm_sq, p.value, p.std_error) for p in report.points + report.support]
    _write_csv(out_dir, "kkt_scan.csv", ["norm_sq", "kkt", "se"], rows)
    summary = {"command": "kkt-scan", **report.summary()}
    _write_json(out_dir, "kkt_scan_summary.json", summary)
    return summary


def _optimizer_from_config(cfg, mc) -> OptimizerConfig:
    spec = cfg.get("optimizer", {})
    if not isinstance(spec, dict):
        _fail("config.optimizer", "expected an object")
    kwargs = {}
    for key, minimum in (("max_atoms", 1), ("outer_iterations", 1),
                         ("weight_iterations", 1)):
        if key in spec:
            kwargs[key] = _integer(spec[key], f"config.optimizer.{key}", minimum)
    for key in ("kkt_tolerance", "power_tolerance", "search_radius_sq"):
        if key in spec:
            kwargs[key] = _number(spec[key], f"config.optimizer.{key}", positive=True)
    try:
        return OptimizerConfig(mc=mc, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config.optimizer: {exc}") from exc


def _cmd_optimize(cfg, model, mc, out_dir):
    a = _number(_require(cfg, "a", "config"), "config.a", positive=True)
    ocfg = _optimizer_from_config(cfg, mc)
    opt = optimize_measure(model, PowerConstraint(a), ocfg)
    _write_json(out_dir, "optimum_measure.json", opt.measure.to_json())
    rows = [(p.norm_sq, p.value, p.std_error)
            for p in opt.kkt_report.points + opt.kkt_report.support]
    _write_csv(out_dir, "optimize_scan.csv", ["norm_sq", "kkt", "se"], rows)
    from .measure import average_power
    summary = {
        "command": "optimize", "a": a,
        "capacity": _estimate_dict(opt.capacity_estimate),
        "gamma": opt.gamma, "converged": opt.converged,
        "power": average_power(opt.measure), "atoms": opt.measure.n_atoms,
        "support_norms_sq": opt.measure.norms_sq.tolist(),
        "weights": opt.measure.weights.tolist(),
        "max_support_residual": max(opt.kkt_report.support_residuals()),
        "scan_minimum": opt.kkt_report.minimum,
    }
    _write_json(out_dir, "optimize_summary.json", summary)
    return summary


def _cmd_capacity_curve(cfg, model, mc, out_dir):
    a_grid = _require(cfg, "a_grid", "config")
    if not isinstance(a_grid, list) or not a_grid:
        _fail("config.a_grid", "expected a nonempty list of budgets")
    a_grid = [_number(v, f"config.a_grid[{i}]", positive=True)
              for i, v in enumerate(a_grid)]
    ocfg = _optimizer_from_config(cfg, mc)
    try:
        points = capacity_curve(model, a_grid, ocfg)
    except ValueError as exc:
        raise ConfigError(f"config.a_grid: {exc}") from exc
    rows = [(p.a, p.capacity.value, p.capacity.std_error, p.gamma,
             int(p.converged)) for p in points]
    _write_csv(out_dir, "capacity_curve.csv",
               ["a", "capacity", "se", "gamma", "converged"], rows)
    summary = {"command": "capacity-curve",
               "points": [{"a": p.a, "capacity": p.capacity.value,
                           "se": p.capacity.std_error, "gamma": p.gamma,
                           "converged": p.converged} for p in points]}
    _write_json(out_dir, "capacity_curve_summary.json", summary)
    return summary


def _cmd_fano(cfg, model, mc, out_dir, args):
    n = args.n if args.n is not None else cfg.get("n")
    if n is None:
        _fail("config.n", "required (config field or --n flag)")
    n = _integer(n, "config.n", 1)
    K = args.K if args.K is not None else cfg.get("K")
    if K is None:
        K = find_sufficient_K(model, n, mc)
    else:
        K = _number(K, "config.K")
        if K < 1.0:
            _fail("config.K", f"expected K >= 1, got {K}")
    fc = build_construction(model, n, K)
    report = detection_report(model, fc, mc,
                              include_mi=bool(cfg.get("include_mi", True)))
    radii = np.exp(fc.log_r)
    rows = [(i + 1, float(radii[i]), report.bounds[i],
             report.detections[i].value, report.detections[i].std_error)
            for i in range(n)]
    _write_csv(out_dir, "fano_shells.csv",
               ["shell", "r", "bound", "detection", "se"], rows)
    summary = {
        "command": "fano", "n": n, "K": K,
        "lambda_paper": report.lambda_paper, "lambda_impl": report.lambda_impl,
        "min_detection": report.min_detection, "meets_lambda": report.meets_lambda,
        "fano_lower_bound": report.fano_lower_bound,
        "average_power": report.average_power,
        "margins_impl": list(report.margins_impl),
        "margins_paper": list(report.margins_paper),
        "log_cap_headroom": report.construction.log_cap_headroom,
        "mutual_information": (_estimate_dict(report.mutual_info)
                               if report.mutual_info is not None else None),
    }
    _write_json(out_dir, "fano_summary.json", summary)
    return summary


def _cmd_bounds(cfg, model, mc, out_dir, args):
    if args.gamma is not None:
        cfg = dict(cfg)
        cfg["gamma"] = args.gamma
    ctx = _context_from_config(cfg, model, mc, None)
    shell_spec = _require(cfg, "shell", "config")
    if not isinstance(shell_spec, dict):
        _fail("config.shell", 'expected {"r1_sq":..., "r2_sq":...}')
    from .measure import InputShell
    try:
        shell = InputShell(_number(_require(shell_spec, "r1_sq", "config.shell"),
                                   "config.shell.r1_sq"),
                           _number(_require(shell_spec, "r2_sq", "config.shell"),
                                   "config.shell.r2_sq"))
    except ValueError as exc:
        raise ConfigError(f"config.shell: {exc}") from exc
    mass = _number(_require(cfg, "mass", "config"), "config.mass")
    pi_bar = _number(cfg["pi_bar"], "config.pi_bar", positive=True) \
        if "pi_bar" in cfg else None
    bound = lemma1_bound(model, shell, mass, pi_bar)
    r_sq_max = support_radius_bound(model, bound, ctx)  # domain errors exit 1
    norms = np.linspace(0.0, 4.0 * max(r_sq_max, shell.r2_sq), 65)
    e0 = np.zeros(model.N, dtype=complex)
    e0[0] = 1.0
    rows = [(float(t), kkt_lower_bound(model, bound, ctx, math.sqrt(t) * e0), 0.0)
            for t in norms]
    _write_csv(out_dir, "bounds.csv", ["norm_sq", "kkt_lower", "se"], rows)
    summary = {"command": "bounds", "support_radius_sq": r_sq_max,
               "log_a": bound.log_a, "pi_bar": bound.pi_bar, "mass": bound.mass}
    _write_json(out_dir, "bounds_summary.json", summary)
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fading-capacity",
        description="Numerical analysis of the noncoherent T=1 Rayleigh fading "
                    "channel: law evaluation, input optimization, optimality "
                    "certificates, and detection witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
        p.add_argument("--samples", type=int, default=None,
                       help="Monte Carlo samples per stream, per atom for mutual "
                            "information (overrides config)")
        if name == "fano":
            p.add_argument("--n", type=int, default=None, help="number of atoms")
            p.add_argument("--K", type=float, default=None, help="base scale (>= 1)")
        if name == "bounds":
            p.add_argument("--gamma", type=float, default=None,
                           help="multiplier (overrides config)")
    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        model = _channel_from_config(cfg)
        mc = _mc_from_config(cfg, args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "density":
            summary = _cmd_density(cfg, model, mc, out_dir)
        elif args.command == "mi":
            summary = _cmd_mi(cfg, model, mc, out_dir)
        elif args.command == "kkt-scan":
            summary = _cmd_kkt_scan(cfg, model, mc, out_dir)
        elif args.command == "optimize":
            summary = _cmd_optimize(cfg, model, mc, out_dir)
        elif args.command == "capacity-curve":
            summary = _cmd_capacity_curve(cfg, model, mc, out_dir)
        elif args.command == "fano":
            summary = _cmd_fano(cfg, model, mc, out_dir, args)
        else:
            summary = _cmd_bounds(cfg, model, mc, out_dir, args)
    except ConfigError as exc:
        print(_json_bytes({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_json_bytes({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(_json_bytes({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    print(_json_bytes(summary))
    return 0


def main() -> None:
    sys.exit(run())
