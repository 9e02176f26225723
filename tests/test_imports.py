import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The benchmark's scalar-curve and mimo-certify calls and an M = 1 shell mass,
# in a fresh interpreter: none of them may load scipy.
SCIPY_FREE = """
import sys
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
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_core_calls_do_not_load_scipy():
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
