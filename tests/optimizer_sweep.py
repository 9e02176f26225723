"""The optimizer's isotropic certification sweep, printed as JSON.

Runs optimize_measure on ChannelModel.isotropic(M, N, 1, 1) for
(M, N) in {(1,1), (2,1), (1,2), (3,1), (2,2)}, a in {0.01, 0.1, 0.5, 1, 2, 4,
10, 30} and k in {4, 8} (max_atoms = outer_iterations = k), with
McConfig(20_000, seed=7) and weight_iterations=200: 80 runs. It prints the
number of runs that report converged, the number of runs, and of converged
runs, whose tail is closed (c_max >= M N iso / gamma, with c_max the
outermost atom's output variance; otherwise the KKT functional falls without
bound as ||x|| grows), the wall time, and per run (M, N, a, k), the flags
and the returned capacity estimate, the exact I(mu) by radial quadrature. Not
collected by pytest; run it from the repository root as

    PYTHONPATH=src python tests/optimizer_sweep.py > sweep.json
"""

import json
import time

import numpy as np

from fading_capacity import (ChannelModel, McConfig, OptimizerConfig,
                             PowerConstraint, optimize_measure)

SHAPES = ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2))
BUDGETS = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 30.0)
ATOMS = (4, 8)
NOISE_VAR, ISO_VAR = 1.0, 1.0


def run_one(M, N, a, k):
    model = ChannelModel.isotropic(M, N, NOISE_VAR, ISO_VAR)
    cfg = OptimizerConfig(mc=McConfig(20_000, seed=7), max_atoms=k,
                          outer_iterations=k, weight_iterations=200)
    opt = optimize_measure(model, PowerConstraint(a), cfg)
    mu = opt.measure
    c_max = NOISE_VAR + ISO_VAR * float(np.max(mu.norms_sq))
    closed = opt.gamma > 0.0 and c_max * opt.gamma >= M * N * ISO_VAR
    return {"M": M, "N": N, "a": a, "k": k, "converged": opt.converged,
            "closed_tail": bool(closed), "gamma": opt.gamma, "atoms": mu.n_atoms,
            "mi": opt.capacity_estimate.value}


def main():
    start = time.perf_counter()
    runs = [run_one(M, N, a, k) for M, N in SHAPES for a in BUDGETS for k in ATOMS]
    wall = time.perf_counter() - start
    print(json.dumps({
        "converged": sum(r["converged"] for r in runs),
        "closed_tail": sum(r["closed_tail"] for r in runs),
        "converged_closed_tail": sum(r["converged"] and r["closed_tail"] for r in runs),
        "wall_s": round(wall, 2),
        "runs": runs,
    }, indent=1))


if __name__ == "__main__":
    main()
