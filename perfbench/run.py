#!/usr/bin/env python3
"""Benchmark for fading_capacity: end-to-end figures, or per-layer figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scalar-curve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One invocation runs one workload in this process. It repeats passes over
the workload's operations on the same inputs for about ``--seconds`` seconds
(at least four passes), checking every result, and measures set-up in fresh
interpreters started between passes. Times are scaled by a reference kernel
run beside them (see reference_seconds). With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import os

# One BLAS thread (no more than the machine's cores), fixed before numpy loads
# so that timings do not depend on how busy the other cores are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 4
SETUP_PROBES = 7
# Seconds the reference kernel takes on the nominal host; times are reported
# at that speed (see reference_seconds).
REFERENCE_NOMINAL_S = 0.025
WORKLOAD_NAMES = ("scalar-curve", "mimo-certify", "fano-cli")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, how it is derived from a tracer). "calls" and
# "self" read a span name, "count" a counter, "ratio" a counter over a span's
# calls (the base, printed beside it).
PER_LAYER = {
    "estimate.mix_calls": ("count", "calls", "estimate.mix"),
    "estimate.mix_elems": ("count", "count", "estimate.mix_elems"),
    "estimate.mix_bytes": ("B", "count", "estimate.mix_bytes"),
    "estimate.mix_s": ("s", "self", "estimate.mix"),
    "estimate.stream_calls": ("count", "calls", "estimate.stream"),
    "estimate.stream_samples": ("count", "count", "estimate.stream_samples"),
    "estimate.stream_s": ("s", "self", "estimate.stream"),
    "estimate.mi_calls": ("count", "calls", "estimate.mi"),
    "estimate.mi_s": ("s", "self", "estimate.mi"),
    "estimate.shell_calls": ("count", "calls", "estimate.shell"),
    "estimate.shell_samples": ("count", "count", "estimate.shell_samples"),
    "estimate.shell_s": ("s", "self", "estimate.shell"),
    "channel.cov_calls": ("count", "calls", "channel.cov"),
    "channel.cov_s": ("s", "self", "channel.cov"),
    "channel.solve_rows": ("count", "count", "channel.solve_rows"),
    "channel.solve_s": ("s", "self", "channel.solve"),
    "channel.rng_draws": ("count", "count", "channel.rng_draws"),
    "channel.rng_s": ("s", "self", "channel.rng"),
    "measure.builds": ("count", "calls", "measure.build"),
    "measure.build_s": ("s", "self", "measure.build"),
    "kkt.scan_calls": ("count", "calls", "kkt.scan"),
    "kkt.scan_points": ("count", "count", "kkt.scan_points"),
    "kkt.scan_s": ("s", "self", "kkt.scan"),
    "optimizer.evaluator_builds": ("count", "calls", "optimizer.evaluator_build"),
    "optimizer.evaluator_build_s": ("s", "self", "optimizer.evaluator_build"),
    "optimizer.cross_means_calls": ("count", "calls", "optimizer.cross_means"),
    "optimizer.cross_means_s": ("s", "self", "optimizer.cross_means"),
    "optimizer.weight_solves": ("count", "calls", "optimizer.weight_solve"),
    "optimizer.match_power_calls": ("count", "calls", "optimizer.match_power"),
    "optimizer.match_power_s": ("s", "self", "optimizer.match_power"),
    "optimizer.move_s": ("s", "self", "optimizer.move"),
    "optimizer.move_accept_ratio": ("ratio", "ratio", "optimizer.move_accepted",
                                    "optimizer.move"),
    "optimizer.insert_s": ("s", "self", "optimizer.insert"),
    "optimizer.insert_accept_ratio": ("ratio", "ratio", "optimizer.insert_accepted",
                                      "optimizer.insert"),
    "fano.find_k_s": ("s", "self", "fano.find_k"),
    "fano.k_doublings": ("count", "count", "fano.k_doublings"),
    "fano.report_calls": ("count", "calls", "fano.report"),
    "fano.report_s": ("s", "self", "fano.report"),
    "cli.runs": ("count", "calls", "cli.run"),
    "cli.run_s": ("s", "self", "cli.run"),
    "cli.write_bytes": ("B", "count", "cli.write_bytes"),
    "cli.write_s": ("s", "self", "cli.write"),
    "trace.overhead_frac": ("ratio", "overhead"),
}


@dataclass
class OpRecord:
    variant: object
    traced: bool
    wall: float
    reference: float  # mean reference kernel time just before and just after
    digest: str | None
    problems: list = field(default_factory=list)
    tracer: object = None


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_layout():
    if not (ROOT / "src" / "fading_capacity" / "__init__.py").is_file():
        _die(f"no package at {ROOT / 'src' / 'fading_capacity'}; "
             "run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))


def _workdir(workload: str) -> Path:
    path = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def _build(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS
    w = WORKLOADS[workload](seed, workdir)
    w.warm_up()
    return w


def setup_probe(args):
    """Child mode: import, build inputs, warm up, say 'ready', clean up.

    Then it times the reference kernel, on the core and at the host speed
    the set-up just ran at, and prints that time.
    """
    workdir = _workdir(args.workload)
    try:
        _build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        _remove_workdir(workdir)
    print(reference_seconds(), flush=True)


def setup_seconds(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its 'ready' line, and the
    reference kernel time the interpreter measured after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed, float(out)


def reference_seconds() -> float:
    """Time a fixed piece of work that uses no package code (20-28 ms on a 2-core VM).

    The host's cores change speed by up to ~40 % for seconds or minutes at a
    time, which moved the median operation time by 15-26 % between runs of
    the same code. Run between operations, this kernel sees the host speed
    the operations saw; reporting operation / kernel ratios took the spread
    of scalar-curve from 15 % to a few %. It mixes what the package spends
    its time on: row-wise log-sum-exp over a (20000, 3) array and
    interpreted Python.
    """
    import numpy as np
    logp = -5.0 * np.random.default_rng(0).random((20_000, 3))
    weights = np.array([0.5, 0.3, 0.2])
    start = time.perf_counter()
    for _ in range(10):
        shift = logp.max(axis=1)
        float(np.sum(shift + np.log(np.exp(logp - shift[:, None]) @ weights)))
    total = 0
    for i in range(80_000):
        total += i * i
    return time.perf_counter() - start


def _run_one(w, variant, traced: bool, before: float) -> tuple[OpRecord, float]:
    """Run one operation; return its record and the reference time after it."""
    from tracer import Tracer, installed
    tracer = Tracer() if traced else None
    error = None
    with installed(tracer) if traced else nullcontext():
        start = time.perf_counter()
        try:
            result = w.run(variant)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    after = reference_seconds()
    reference = 0.5 * (before + after)
    if error is not None:
        return OpRecord(variant, traced, wall, reference, None, [error], tracer), after
    return OpRecord(variant, traced, wall, reference, w.digest(result),
                    w.check(variant, result), tracer), after


def run_passes(w, args, setup_times: list) -> list[list[OpRecord]]:
    """Repeat passes (one operation per variant) until the window is spent.

    At least MIN_PASSES passes run. With tracing, passes alternate untraced
    and traced, starting untraced. Every repeat of a variant must give the
    same result hash, traced or not. The set-up probes are spread evenly
    over the window, between passes, so that their median is not a snapshot
    of one moment of a host whose speed drifts. The reference kernel runs
    between operations; each operation is paired with the mean of the runs
    just before and just after it, each probe with the run its interpreter
    made after set-up.
    """
    probes = 0 if args.trace else SETUP_PROBES
    passes: list[list[OpRecord]] = []
    reference = reference_seconds()
    window_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - window_start
        while (len(setup_times) < probes
               and elapsed >= len(setup_times) * args.seconds / probes):
            setup_times.append(setup_seconds(args))
            elapsed = time.perf_counter() - window_start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(
                sum(r.wall for r in p) for p in passes) > args.seconds:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        records = []
        for v in w.variants:
            record, reference = _run_one(w, v, traced, reference)
            records.append(record)
        passes.append(records)
    while len(setup_times) < probes:
        setup_times.append(setup_seconds(args))
    for v in w.variants:
        records = [r for p in passes for r in p if r.variant == v]
        digests = Counter(r.digest for r in records if r.digest is not None)
        if digests:
            majority = digests.most_common(1)[0][0]
            for r in records:
                if r.digest is not None and r.digest != majority:
                    r.problems.append("result hash differs from the other repeats"
                                      + (" (traced)" if r.traced else ""))
    return passes


def median_pass(passes, traced: bool, scaled: bool = True) -> float:
    """Sum over variants of the variant's median operation time.

    Scaled, each time is first divided by its reference kernel time and
    multiplied by REFERENCE_NOMINAL_S: seconds on a host where the kernel
    takes that long.
    """
    def t(r):
        return r.wall * REFERENCE_NOMINAL_S / r.reference if scaled else r.wall
    return sum(statistics.median(t(p[i]) for p in passes if p[0].traced == traced)
               for i in range(len(passes[0])))


def layer_metrics(passes) -> tuple[dict, Counter, Counter]:
    """Per-pass means over the traced passes."""
    traced = [p for p in passes if p[0].traced]
    n = len(traced)
    calls, self_time, counts = Counter(), Counter(), Counter()
    for r in (r for p in traced for r in p):
        calls.update(r.tracer.calls)
        self_time.update(r.tracer.self_time)
        counts.update(r.tracer.counts)
    values = {}
    for name, (unit, kind, *src) in PER_LAYER.items():
        if kind == "calls":
            values[name] = calls[src[0]] / n
        elif kind == "self":
            values[name] = self_time[src[0]] / n
        elif kind == "count":
            values[name] = counts[src[0]] / n
        elif kind == "ratio":
            base = calls[src[1]]
            values[name] = counts[src[0]] / base if base else 0.0
        else:
            values[name] = median_pass(passes, True) / median_pass(passes, False) - 1.0
    return values, calls, counts


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "loadavg_start": [round(x, 2) for x in os.getloadavg()]}


def print_layer_report(passes, values, calls, counts):
    traced = [r for p in passes if p[0].traced for r in p]
    n = sum(1 for p in passes if p[0].traced)
    print(f"per-layer figures: mean per pass over {n} traced pass(es), "
          f"{sum(len(r.tracer.spans) for r in traced)} spans; "
          "times are self time (span duration minus its child spans)")
    for name, (unit, kind, *src) in PER_LAYER.items():
        note = ""
        if kind == "ratio":
            note = (f"  ({counts[src[0]] / n:g} accepted of {calls[src[1]] / n:g} "
                    f"{src[1]} calls per pass)")
        elif unit == "B":
            note = "  (computed from array and file sizes, not measured traffic)"
        elif kind == "overhead":
            note = "  (median traced pass / median untraced pass - 1)"
        print(f"  {name:32s} {values[name]:>14.6g} {unit}{note}")


def run_workload(args) -> dict:
    print("env " + json.dumps(environment()), flush=True)
    setup_times = []
    workdir = _workdir(args.workload)
    try:
        w = _build(args.workload, args.seed, workdir)
        passes = run_passes(w, args, setup_times)
    finally:
        _remove_workdir(workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [r for p in passes for r in p]
    failed = [r for r in records if r.problems]
    print(f"workload {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} "
          f"passes, {len(records)} operations, {len(failed)} failed")
    for i, p in enumerate(passes):
        ops = "  ".join(f"{r.variant}: {r.wall:.4f} s" if r.variant is not None
                        else f"{r.wall:.4f} s" for r in p)
        print(f"  pass {i}{' traced' if p[0].traced else ''}: {ops}  "
              f"hash {' '.join((r.digest or '-')[:12] for r in p)}")
    for r in failed:
        print(f"  FAILED {r.variant}: {'; '.join(r.problems)}")
    if args.trace:
        values, calls, counts = layer_metrics(passes)
        print_layer_report(passes, values, calls, counts)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(t * REFERENCE_NOMINAL_S / ref
                                                for t, ref in setup_times),
                  "wall_s": median_pass(passes, False),
                  "peak_rss_mb": peak_rss_mb}
        references = [r.reference for p in passes for r in p]
        print(f"  times are scaled to a host where the reference kernel takes "
              f"{REFERENCE_NOMINAL_S} s; it took {min(references):.4f}-{max(references):.4f} s "
              f"(median {statistics.median(references):.4f} s) in this run")
        print(f"  setup_s      {values['setup_s']:.4f} s  (median of {len(setup_times)} "
              "fresh interpreters: import, inputs, warm-up; raw "
              f"{' '.join(f'{t:.3f}' for t, _ in setup_times)})")
        print(f"  wall_s       {values['wall_s']:.4f} s  (median time of each operation over "
              f"{len(passes)} passes, summed; raw {median_pass(passes, False, False):.4f} s)")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
        print(f"  failed_frac  {len(failed) / len(records):.4f}  "
              f"({len(failed)} of {len(records)} operations)")
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process; one summary table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        rows.append((name, result))
    print("summary")
    for name, result in rows:
        cells = "" if args.trace else "  ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"  {name:14s} failed_frac={result['failed'] / result['attempted']:.3f}  {cells}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_layout()
    if args.setup_probe:
        setup_probe(args)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
