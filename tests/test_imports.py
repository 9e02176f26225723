import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The benchmark's scalar-curve and mimo-certify calls, gamma tails, shell masses at
# M = 1, M = 3 and on a dense 2x2 channel, a dense Fano detection audit, the dense
# density paths, and the fano CLI on an isotropic 3x2 channel and the density CLI on a
# dense 2x2 one, in a fresh interpreter: none may load scipy, nor numpy.ma (np.unique
# loads it, about 1.6 MB of maxrss), nor numpy.polynomial (its 9 modules cost 0.6-1.0 MB).
SCIPY_FREE = """
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import fading_capacity as fc
import fading_capacity.cli

cfg = fc.McConfig(200, seed=1)
scalar = fc.ChannelModel.isotropic(1, 1, 1.0, 1.0)
atoms = np.array([[0j], [2.0 + 0j]])
w = fc.optimize_weights(scalar, atoms, 1.0, 0.1, fc.OptimizerConfig(mc=cfg))
mu = fc.DiscreteMeasure(atoms, w)
fc.mutual_information(scalar, mu, cfg)
fc.kkt_scan(scalar, mu, fc.KktContext(0.1, 1.0, 0.2), fc.radial_scan_grid(scalar, 8.0), cfg)

rng = np.random.default_rng(3)
a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
dense = fc.ChannelModel(2, 2, 1.0, a @ a.conj().T / 4 + 0.1 * np.eye(4))
mu = fc.DiscreteMeasure([[0j, 0j], [1.0 + 0.5j, -0.5j]], [0.6, 0.4])
fc.mutual_information(dense, mu, cfg)
fc.kkt_scan(dense, mu, fc.KktContext(0.1, 1.0, 0.2),
            fc.radial_scan_grid(dense, 8.0, points_per_decade=2, n_directions=2), cfg)

fc.shell_probability(scalar, [1.0 + 0j], fc.OutputShell(0.5, 2.0), cfg)
fc.shell_probability(dense, [1.0 + 0.5j, -0.5j], fc.OutputShell(0.5, 2.0), cfg)
fc.detection_report(dense, fc.build_construction(dense, 3, 2.0), cfg, include_mi=False)
fc.log_density(dense, [0.3 - 0.2j, 1.1j], [1.0 + 0.5j, -0.5j])
fc.mixture_log_density(dense, mu, [0.3 - 0.2j, 1.1j])
fc.chi_square_tail(4.0, 3)
fc.log_chi_square_tail(1.0, 3)
iso = fc.ChannelModel.isotropic(3, 2, 1.0, 1.0)
fc.shell_probability(iso, [1.0 + 0j, 0.5j], fc.OutputShell(0.5, 2.0), cfg)
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "fano.json"
    config.write_text(json.dumps({
        "channel": {"M": 3, "N": 2, "noise_var": 1.0, "sigma": {"type": "isotropic", "var": 1.0}},
        "seed": 1, "mc": {"samples": 200}, "include_mi": True}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = fading_capacity.cli.run(["fano", "--config", str(config),
                                        "--out", str(Path(tmp) / "out"), "--n", "2"])
    assert code == 0
    config = Path(tmp) / "density.json"
    config.write_text(json.dumps({
        "channel": {"M": 2, "N": 2, "noise_var": 1.0,
                    "sigma": {"type": "dense", "re": dense.sigma.real.tolist(),
                              "im": dense.sigma.imag.tolist()}},
        "seed": 1, "x": {"re": [1.0, 0.0], "im": [0.5, -0.5]},
        "outputs": [{"re": [0.3, 0.0], "im": [-0.2, 1.1]}]}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = fading_capacity.cli.run(["density", "--config", str(config),
                                        "--out", str(Path(tmp) / "density")])
    assert code == 0
print(sorted(m for m in sys.modules if m in ("scipy", "numpy.ma", "numpy.polynomial")
             or m.startswith(("scipy.", "numpy.polynomial."))))
"""


def test_core_calls_do_not_load_scipy():
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The sample streams, radial tables and log-density coefficients belong to the one
# integrator, estimate._ConditionalLaws: kkt and the optimizer call only its
# cross_terms and posteriors.
INTEGRATOR_INTERNALS = {"_CROSS_STREAM", "_stream_indices", "_draws", "_form_coefficients",
                        "_log_densities", "radial_weights", "table", "cross_quadratures",
                        "stream_stats", "_weighted_mix"}


def _referenced_names(code: types.CodeType) -> set:
    """Global and attribute names that code or any function nested in it refers to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


@pytest.mark.parametrize("name", ["kkt", "optimizer"])
def test_integrator_internals_stay_in_estimate(name):
    module = importlib.import_module(f"fading_capacity.{name}")
    path = Path(module.__file__)
    code = compile(path.read_text(), str(path), "exec")
    assert not INTEGRATOR_INTERNALS & (set(vars(module)) | _referenced_names(code))
