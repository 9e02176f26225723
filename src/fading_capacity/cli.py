"""Batch front end: JSON configs in, CSV tables and JSON summaries out.

Subcommands: density | mi | kkt-scan | optimize | capacity-curve | fano | bounds.
On dense channels the commands that draw samples (mi, kkt-scan, optimize,
capacity-curve, fano) need a seed in [0, 2^64), from the config or --seed; on
isotropic channels they draw nothing, and a missing seed means 0. density and
bounds take none. Every flag overrides the config field of its name
(--samples: mc.samples).
Identical config bytes and seed produce byte-identical outputs; every
Monte Carlo row carries its standard-error column, exact values carry se = 0.
Exit codes: 0 success, 1 domain errors (e.g. a non-closing support bound),
2 config or IO errors. Run as `fading-capacity` or `python -m fading_capacity.cli`.

The package pins no BLAS thread count. On a 2-core VM, OpenBLAS's default threads
made the posterior products of an isotropic weight solve over K = 160 atoms about
20 times slower than one thread (a (83, 420) @ (420, 160) product: 24 ms against
0.25 ms); run with OPENBLAS_NUM_THREADS=1 on such hosts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import (_U64, ChannelModel, _at, _fail, _integer, _number, _numbers, _require,
                      _vector, conditional_entropy, input_norm_sq, log_density)
from .errors import AnalysisError, ConfigError
from .estimate import McConfig, _mutual_information
from .fano import _report_mi, _sufficient_report, build_construction, detection_report
from .kkt import KktContext, _kkt_lower_bounds, kkt_scan, lemma1_bound, radial_scan_grid, \
    support_radius_bound
from .measure import DiscreteMeasure, InputShell, PowerConstraint, average_power
from .optimizer import (_SEARCH_RADIUS_FACTOR, OptimizerConfig, capacity_curve,
                        optimize_measure)


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


# the fields each optional section of a config may hold
_SECTION_FIELDS = {
    "mc": ("samples",),
    "grid": ("max_norm_sq", "points_per_decade", "decades", "directions"),
    "optimizer": ("max_atoms", "outer_iterations", "weight_iterations", "kkt_tolerance",
                  "search_radius_sq"),
}


def _section(cfg: dict, key: str) -> dict:
    """The optional object cfg[key]; {} when it is absent. A field that is not one
    of _SECTION_FIELDS[key] is an error, not silently left at its default."""
    spec = cfg.get(key, {})
    if not isinstance(spec, dict):
        _fail(f"config.{key}", "expected an object")
    for field in spec:
        if field not in _SECTION_FIELDS[key]:
            _fail(f"config.{key}.{field}", "unknown field")
    return spec


def _parsed(from_json, spec, path: str):
    """from_json(spec); its ConfigErrors and its constructor's ValueErrors go under path."""
    try:
        return from_json(spec)
    except ConfigError as exc:
        _fail(_at(path, exc.path), exc.reason)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _measure_from_config(cfg: dict, model: ChannelModel) -> DiscreteMeasure:
    spec = _require(cfg, "measure", "config")
    if isinstance(spec, str):
        spec = _load_config(spec)
    mu = _parsed(DiscreteMeasure.from_json, spec, "config.measure")
    if mu.dim != model.N:
        _fail("config.measure.atoms", f"expected vectors of {model.N} numbers, got {mu.dim}")
    return mu


def _mc_from_config(cfg: dict, model: ChannelModel) -> McConfig:
    """mc.samples and the seed: required on dense channels, 0 when absent on isotropic
    ones, where every integral the commands take is exact."""
    spec = _section(cfg, "mc")
    samples = _integer(spec.get("samples", 200_000), "config.mc.samples", 100)
    seed = cfg.get("seed", 0) if model.iso_var is not None else _require(cfg, "seed", "config")
    seed = _integer(seed, "config.seed", 0)
    if seed > _U64:
        _fail("config.seed", f"expected < 2^64, got {seed}")
    return McConfig(samples=samples, seed=seed)


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


def _cmd_density(cfg, model, out_dir):
    x = _vector(_require(cfg, "x", "config"), "config.x", model.N)
    outputs = _require(cfg, "outputs", "config")
    if not isinstance(outputs, list) or not outputs:
        _fail("config.outputs", "expected a nonempty list of output vectors")
    rows = [(i, log_density(model, _vector(y, f"config.outputs[{i}]", model.M), x), 0.0)
            for i, y in enumerate(outputs)]
    _write_csv(out_dir, "density.csv", ["index", "log_density", "se"], rows)
    return {"count": len(rows), "conditional_entropy": conditional_entropy(model, x),
            "input_norm_sq": input_norm_sq(x)}


def _cmd_mi(cfg, model, out_dir):
    mu = _measure_from_config(cfg, model)
    est = _mutual_information(model, mu, _mc_from_config(cfg, model))
    _write_csv(out_dir, "mi.csv", ["value", "se", "samples"],
               [(est.value, est.std_error, est.samples)])
    return {"mutual_information": _estimate_dict(est), "atoms": mu.n_atoms}


def _context_from_config(cfg, capacity=None):
    gamma = _number(_require(cfg, "gamma", "config"), "config.gamma")
    a = _number(_require(cfg, "a", "config"), "config.a", positive=True)
    if capacity is None:
        capacity = _number(_require(cfg, "capacity", "config"), "config.capacity")
    try:
        return KktContext(gamma=gamma, a=a, capacity=capacity)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def _cmd_kkt_scan(cfg, model, out_dir):
    mu = _measure_from_config(cfg, model)
    mc = _mc_from_config(cfg, model)
    capacity = None if "capacity" in cfg else max(_mutual_information(model, mu, mc).value, 0.0)
    ctx = _context_from_config(cfg, capacity)
    grid_spec = _section(cfg, "grid")
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
    return report.summary()


def _optimizer_from_config(cfg, model) -> OptimizerConfig:
    spec = _section(cfg, "optimizer")
    counts = ("max_atoms", "outer_iterations", "weight_iterations")
    kwargs = {}
    for key, value in spec.items():
        if key in counts:
            kwargs[key] = _integer(value, f"config.optimizer.{key}", 1)
        else:  # kkt_tolerance, search_radius_sq
            kwargs[key] = _number(value, f"config.optimizer.{key}", positive=True)
    return OptimizerConfig(mc=_mc_from_config(cfg, model), **kwargs)


def _cmd_optimize(cfg, model, out_dir):
    a = _number(_require(cfg, "a", "config"), "config.a", positive=True)
    ocfg = _optimizer_from_config(cfg, model)
    opt = optimize_measure(model, PowerConstraint(a), ocfg)
    _write_json(out_dir, "optimum_measure.json", opt.measure.to_json())
    rows = [(p.norm_sq, p.value, p.std_error)
            for p in opt.kkt_report.points + opt.kkt_report.support]
    _write_csv(out_dir, "optimize_scan.csv", ["norm_sq", "kkt", "se"], rows)
    return {
        "a": a,
        "capacity": _estimate_dict(opt.capacity_estimate),
        "gamma": opt.gamma, "converged": opt.converged,
        "power": average_power(opt.measure), "atoms": opt.measure.n_atoms,
        "support_norms_sq": opt.measure.norms_sq.tolist(),
        "weights": opt.measure.weights.tolist(),
        "max_support_residual": max(opt.kkt_report.support_residuals()),
        "scan_minimum": opt.kkt_report.minimum,
    }


def _cmd_capacity_curve(cfg, model, out_dir):
    a_grid = _numbers(_require(cfg, "a_grid", "config"), "config.a_grid", positive=True)
    ocfg = _optimizer_from_config(cfg, model)
    try:
        points = capacity_curve(model, a_grid, ocfg)
    except ValueError as exc:
        raise ConfigError(f"config.a_grid: {exc}") from exc
    rows = [(p.a, p.capacity.value, p.capacity.std_error, p.gamma,
             int(p.converged)) for p in points]
    _write_csv(out_dir, "capacity_curve.csv",
               ["a", "capacity", "se", "gamma", "converged"], rows)
    return {"points": [{"a": p.a, "capacity": p.capacity.value, "se": p.capacity.std_error,
                        "gamma": p.gamma, "converged": p.converged} for p in points]}


def _cmd_fano(cfg, model, out_dir):
    n = _integer(_require(cfg, "n", "config"), "config.n", 1)
    mc = _mc_from_config(cfg, model)
    K = cfg.get("K")
    if K is not None:
        K = _number(K, "config.K")
        if K < 1.0:
            _fail("config.K", f"expected K >= 1, got {K}")
    include_mi = cfg.get("include_mi", True)
    if not isinstance(include_mi, bool):
        _fail("config.include_mi", f"expected a boolean, got {type(include_mi).__name__}")
    report = (_sufficient_report(model, n, mc) if K is None else
              detection_report(model, build_construction(model, n, K), mc, include_mi=False))
    fc = report.construction
    if include_mi:
        report = replace(report, mutual_info=_report_mi(model, fc, mc))
    radii = np.exp(fc.log_r)
    rows = [(i + 1, float(radii[i]), report.bounds[i],
             report.detections[i].value, report.detections[i].std_error)
            for i in range(n)]
    _write_csv(out_dir, "fano_shells.csv",
               ["shell", "r", "bound", "detection", "se"], rows)
    return {
        "n": n, "K": fc.k_base,
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


def _cmd_bounds(cfg, model, out_dir):
    ctx = _context_from_config(cfg)
    shell_spec = _require(cfg, "shell", "config")
    r1_sq = _number(_require(shell_spec, "r1_sq", "config.shell"), "config.shell.r1_sq")
    r2_sq = _number(_require(shell_spec, "r2_sq", "config.shell"), "config.shell.r2_sq")
    mass = _number(_require(cfg, "mass", "config"), "config.mass")
    pi_bar = _number(cfg["pi_bar"], "config.pi_bar", positive=True) \
        if "pi_bar" in cfg else None
    try:  # r1_sq >= r2_sq, or a mass outside [0, 1]
        shell = InputShell(r1_sq, r2_sq)
        bound = lemma1_bound(model, shell, mass, pi_bar)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    r_sq_max = support_radius_bound(model, bound, ctx)  # domain errors exit 1
    norms = np.linspace(0.0, 4.0 * max(r_sq_max, shell.r2_sq), 65)
    xs = np.sqrt(norms)[:, None] * np.eye(1, model.N, dtype=complex)
    rows = [(t, v, 0.0) for t, v in
            zip(norms.tolist(), _kkt_lower_bounds(model, bound, ctx, xs).tolist())]
    _write_csv(out_dir, "bounds.csv", ["norm_sq", "kkt_lower", "se"], rows)
    return {"support_radius_sq": r_sq_max, "log_a": bound.log_a, "pi_bar": bound.pi_bar,
            "mass": bound.mass}


# flag -> (type, the config field it overrides, help)
_FLAGS = {
    "seed": (int, "seed", "base seed (overrides config; dense channels need one)"),
    "samples": (int, "mc.samples", "Monte Carlo samples per stream, per atom for mutual "
                                   "information (overrides config)"),
    "n": (int, "n", "number of atoms"),
    "K": (float, "K", "base scale (>= 1)"),
    "gamma": (float, "gamma", "multiplier (overrides config)"),
}

# command -> (handler(cfg, model, out_dir) -> summary, its flags besides --seed and --samples)
_COMMANDS = {
    "density": (_cmd_density, ()),
    "mi": (_cmd_mi, ()),
    "kkt-scan": (_cmd_kkt_scan, ()),
    "optimize": (_cmd_optimize, ()),
    "capacity-curve": (_cmd_capacity_curve, ()),
    "fano": (_cmd_fano, ("n", "K")),
    "bounds": (_cmd_bounds, ("gamma",)),
}


def _with_flags(cfg: dict, args) -> dict:
    """cfg with each flag given on the command line in the config field it overrides."""
    cfg = dict(cfg)
    for flag, (_, path, _) in _FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            section, _, field = path.rpartition(".")
            if section:
                cfg[section] = {**_section(cfg, section), field: value}
            else:
                cfg[field] = value
    return cfg


@functools.cache  # built once per process: parsing leaves the parser unchanged
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
        for flag in ("seed", "samples", *_COMMANDS[name][1]):
            kind, _, text = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, default=None, help=text)
    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _with_flags(_load_config(args.config), args)
        model = _parsed(ChannelModel.from_json, _require(cfg, "channel", "config"),
                        "config.channel")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = {"command": args.command, **_COMMANDS[args.command][0](cfg, model, out_dir)}
        _write_json(out_dir, f"{args.command.replace('-', '_')}_summary.json", summary)
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


if __name__ == "__main__":
    main()
