"""The benchmark's workloads: inputs made from a seed, one timed operation,
its correctness check and a digest of its results.

Every workload calls the public API through attribute lookups on the
``fading_capacity`` modules at call time, so the traced run's wrappers see
the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import fading_capacity as fc
from fading_capacity import cli

SAMPLES = 20_000


def _random_hermitian_pd(rng, n, ridge=0.1):
    # same construction as tests/conftest.py::random_hermitian_pd
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + ridge * np.eye(n)


def dense_sigma() -> np.ndarray:
    """The 4x4 fading covariance of conftest.random_model(default_rng(2024), 2, 2)."""
    return _random_hermitian_pd(np.random.default_rng(2024), 4)


def _hash_floats(h, *values):
    for v in values:
        h.update(np.asarray(v, dtype=np.complex128 if np.iscomplexobj(v)
                            else np.float64).tobytes())


class ScalarCurve:
    """The optimizer's steps at three points of the scalar capacity curve.

    For each budget a there are two operations on the oracle's optimal
    support, timed apart: "weights" runs optimize_weights at the oracle's
    multiplier (the weight solve on cached samples) and mutual_information;
    "scan" runs kkt_scan on the grid insert_atom scans (257 points up to
    |x|^2 = 48 a N) for the measure and capacity the last "weights"
    operation of that budget returned, which every repeat makes
    bit-identical. Supports, weights, multipliers and capacities are those of
    tests/oracles.py::ScalarRadialOracle(1, 1).capacity(a), recorded here
    because the search takes about 11 s; ``selftest.py --oracle`` recomputes
    them.
    """

    name = "scalar-curve"
    # label -> (a, support squared norms, weights, multiplier gamma, capacity in nats)
    points = {
        "a=0.1": (0.1, (0.0, 3.8444052931417887),
                  (0.9739881744055642, 0.02601182559443585),
                  0.3057372501510802, 0.036337331487556065),
        "a=1": (1.0, (0.0, 5.8670372365001935, 42.25081076357633, 47.92004800732623),
                (0.8295562340491096, 0.17044376395089014, 1.0000002737033993e-09, 1e-09),
                0.11347955395780232, 0.1955469686265297),
        "a=4": (4.0, (0.0, 9.418554153813115, 25.0065343417135),
                (0.6834239734322824, 0.2512493109821867, 0.0653267155855309),
                0.03433554416335246, 0.37461444375568875),
    }
    # Same tolerance as tests/test_optimizer.py::test_matches_grid_search_oracle.
    weight_tolerance = 0.02
    variants = tuple(f"{label} {step}" for label in points for step in ("weights", "scan"))

    def __init__(self, seed: int, workdir: Path):
        self.model = fc.ChannelModel.isotropic(1, 1, 1.0, 1.0)
        self.cfg = fc.OptimizerConfig(mc=fc.McConfig(SAMPLES, seed=seed), max_atoms=4,
                                      outer_iterations=4, weight_iterations=200)
        self.atoms = {label: np.sqrt(np.asarray(ts))[:, None].astype(complex)
                      for label, (_, ts, *_) in self.points.items()}
        # optimizer.insert_atom's grid
        self.grids = {label: fc.radial_scan_grid(self.model, 48.0 * a * self.model.N,
                                                 64, 4, seed=seed)
                      for label, (a, *_) in self.points.items()}
        self.weighted = {}  # label -> (measure, capacity) of the last "weights" step

    def warm_up(self):
        mu = fc.DiscreteMeasure([[0j], [1.0 + 0j]], [0.5, 0.5])
        fc.mutual_information(self.model, mu, fc.McConfig(100, seed=0))

    def run(self, variant):
        label, step = variant.split()
        a, _, _, gamma, _ = self.points[label]
        if step == "weights":
            w = fc.optimize_weights(self.model, self.atoms[label], a, gamma, self.cfg)
            mu = fc.DiscreteMeasure(self.atoms[label], w)
            self.weighted[label] = mu, fc.mutual_information(self.model, mu, self.cfg.mc)
            return self.weighted[label]
        mu, cap = self.weighted[label]
        ctx = fc.KktContext(gamma, a, max(cap.value, 0.0))
        return mu, fc.kkt_scan(self.model, mu, ctx, self.grids[label], self.cfg.mc)

    def check(self, variant, result) -> list[str]:
        label, step = variant.split()
        _, _, oracle_weights, _, oracle = self.points[label]
        tol = self.cfg.kkt_tolerance
        if step == "scan":
            # KKT at the optimum: >= 0 everywhere and = 0 on the support, each
            # within kkt_tolerance + 3 SE.
            mu, report = result
            problems = []
            if len(report.points) != len(self.grids[label]):
                problems.append(f"{len(report.points)} scan points for "
                                f"{len(self.grids[label])} grid points")
            for p in report.points + report.support:
                if p.value + 3.0 * p.std_error < -tol:
                    problems.append(f"KKT {p.value:.6g} (SE {p.std_error:.2g}) "
                                    f"at |x|^2 = {p.norm_sq:.6g}")
            for w, p in zip(mu.weights, report.support):
                if w > 1e-6 and abs(p.value) > tol + 3.0 * p.std_error:
                    problems.append(f"support residual {p.value:.6g} "
                                    f"(SE {p.std_error:.2g}) at |x|^2 = {p.norm_sq:.6g}")
            return problems
        # At a fixed multiplier the power is not held to the budget (that is
        # the power-matched optimizer's job), so the weights are compared with
        # the oracle's instead.
        mu, cap = result
        problems = []
        gap = float(np.max(np.abs(mu.weights - np.asarray(oracle_weights))))
        if gap > self.weight_tolerance:
            problems.append(f"weights {mu.weights} vs oracle {oracle_weights}")
        if abs(cap.value - oracle) > tol + 3.0 * cap.std_error:
            problems.append(f"capacity {cap.value:.6f} vs oracle {oracle:.6f}")
        return problems

    def digest(self, result) -> str:
        mu, out = result
        h = hashlib.sha256()
        if isinstance(out, fc.KktReport):
            _hash_floats(h, [(p.value, p.std_error) for p in out.points + out.support])
        else:
            _hash_floats(h, mu.weights, out.value, out.std_error)
        return h.hexdigest()


class MimoCertify:
    """Mutual information and a KKT scan of a fixed 3-atom measure, dense 2x2."""

    name = "mimo-certify"
    variants = (None,)
    atoms = np.array([[0.0, 0.0], [1.0, 0.5j], [-1.5, 2.0 + 1.0j]], dtype=complex)
    weights = (0.5, 0.3, 0.2)
    gamma, a = 0.2, 1.0

    def __init__(self, seed: int, workdir: Path):
        self.model = fc.ChannelModel(2, 2, 1.0, dense_sigma())
        self.mu = fc.DiscreteMeasure(self.atoms, self.weights)
        self.mc = fc.McConfig(SAMPLES, seed=seed)
        self.grid = fc.radial_scan_grid(self.model, 96.0, points_per_decade=8,
                                        decades=3, n_directions=2, seed=seed)

    def warm_up(self):
        fc.mutual_information(self.model, self.mu, fc.McConfig(100, seed=0))

    def run(self, variant):
        mi = fc.mutual_information(self.model, self.mu, self.mc)
        ctx = fc.KktContext(self.gamma, self.a, max(mi.value, 0.0))
        return mi, fc.kkt_scan(self.model, self.mu, ctx, self.grid, self.mc)

    def check(self, variant, result) -> list[str]:
        # The scan's atom streams are the ones the MI estimate used, so with
        # C = MI the weighted support sum is gamma (P - a) exactly.
        mi, report = result
        problems = []
        if not mi.value > 0.0:
            problems.append(f"mutual information {mi.value:.6g} is not positive")
        lhs = sum(w * p.value for w, p in zip(self.mu.weights, report.support))
        rhs = self.gamma * (fc.average_power(self.mu) - self.a)
        if abs(lhs - rhs) > 1e-9:
            problems.append(f"sum_i w_i KKT(x_i) = {lhs!r} != gamma (P - a) = {rhs!r}")
        if len(report.points) != len(self.grid):
            problems.append(f"{len(report.points)} scan points for {len(self.grid)} grid points")
        return problems

    def digest(self, result) -> str:
        mi, report = result
        h = hashlib.sha256()
        _hash_floats(h, mi.value, mi.std_error,
                     [(p.value, p.std_error) for p in report.points + report.support])
        return h.hexdigest()


class FanoCli:
    """``fading-capacity fano`` in-process on three channels, plus one ``bounds``."""

    name = "fano-cli"
    variants = (None,)
    ns = (2, 3, 4)

    def __init__(self, seed: int, workdir: Path):
        sigma = dense_sigma()
        channels = {
            "scalar": {"M": 1, "N": 1, "noise_var": 1.0,
                       "sigma": {"type": "isotropic", "var": 1.0}},
            "iso3x2": {"M": 3, "N": 2, "noise_var": 1.0,
                       "sigma": {"type": "isotropic", "var": 1.0}},
            "dense2x2": {"M": 2, "N": 2, "noise_var": 1.0,
                         "sigma": {"type": "dense", "re": sigma.real.tolist(),
                                   "im": sigma.imag.tolist()}},
        }
        self.calls = []
        for label, channel in channels.items():
            config = workdir / f"fano_{label}.json"
            config.write_text(json.dumps({"channel": channel, "seed": seed,
                                          "mc": {"samples": SAMPLES},
                                          "include_mi": True}))
            for n in self.ns:
                out = workdir / f"fano_{label}_n{n}"
                self.calls.append(["fano", "--config", str(config), "--out", str(out),
                                   "--n", str(n)])
        bounds = workdir / "bounds.json"
        bounds.write_text(json.dumps({
            "channel": channels["scalar"], "seed": seed, "gamma": 1.0, "a": 1.0,
            "capacity": 0.5, "shell": {"r1_sq": 9.0, "r2_sq": 100.0},
            "mass": 0.5, "pi_bar": 10.0}))
        self.calls.append(["bounds", "--config", str(bounds),
                           "--out", str(workdir / "bounds")])
        self.warm_call = ["fano", "--config", str(workdir / "fano_scalar.json"),
                          "--out", str(workdir / "warm"), "--n", "1", "--K", "2",
                          "--samples", "100"]

    @staticmethod
    def _invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self):
        self._invoke(self.warm_call)

    def run(self, variant):
        return [self._invoke(argv) for argv in self.calls]

    def check(self, variant, results) -> list[str]:
        problems = []
        for argv, (code, out, err) in zip(self.calls, results):
            where = " ".join(argv[:1] + argv[2:3] + argv[-2:])
            if code != 0:
                problems.append(f"{where}: exit {code}: {err.strip()}")
                continue
            summary = json.loads(out)
            if argv[0] == "bounds":
                if not 0.0 < summary["support_radius_sq"] < math.inf:
                    problems.append(f"{where}: support radius {summary['support_radius_sq']}")
                continue
            if not summary["meets_lambda"]:
                problems.append(f"{where}: meets_lambda is false")
            with open(Path(argv[4]) / "fano_shells.csv", newline="") as f:
                for row in csv.DictReader(f):
                    det, bound, se = (float(row[k]) for k in ("detection", "bound", "se"))
                    if det < bound - 3.0 * se:
                        problems.append(f"{where}: shell {row['shell']} detection "
                                        f"{det:.6g} < bound {bound:.6g} - 3 SE")
            mi = summary["mutual_information"]
            if mi is None or mi["value"] < summary["fano_lower_bound"] - 3.0 * mi["std_error"]:
                problems.append(f"{where}: MI {mi} below the Fano bound "
                                f"{summary['fano_lower_bound']:.6g}")
        return problems

    def digest(self, results) -> str:
        h = hashlib.sha256()
        for argv, (code, out, err) in zip(self.calls, results):
            h.update(f"{code}\n{out}\n{err}\n".encode())
            out_dir = Path(argv[argv.index("--out") + 1])
            for path in sorted(out_dir.iterdir()):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (ScalarCurve, MimoCertify, FanoCli)}
