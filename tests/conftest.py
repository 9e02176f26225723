import math
from collections import OrderedDict

import numpy as np
import pytest

from fading_capacity import ChannelModel, DiscreteMeasure, estimate


# ScalarRadialOracle(1, 1).capacity(a) optima: squared norms, weights,
# multiplier gamma and capacity in nats, as recorded for the benchmark's
# scalar-curve workload. The a = 1 tail weights sit at the oracle's 1e-9
# bound.
ORACLE_OPTIMA = {
    0.1: ([0.0, 3.8444052931417887], [0.9739881744055642, 0.02601182559443585],
          0.3057372501510802, 0.036337331487556065),
    1.0: ([0.0, 5.8670372365001935, 42.25081076357633, 47.92004800732623],
          [0.8295562340491096, 0.17044376395089014, 1.0000002737033993e-09, 1e-09],
          0.11347955395780232, 0.1955469686265297),
    4.0: ([0.0, 9.418554153813115, 25.0065343417135],
          [0.6834239734322824, 0.2512493109821867, 0.0653267155855309],
          0.03433554416335246, 0.37461444375568875),
}


@pytest.fixture
def cold_draws(monkeypatch):
    """An empty process-wide draw cache for one test, so a test that counts
    draws does not depend on which tests ran before it."""
    monkeypatch.setattr(estimate, "_DRAWS", OrderedDict())
    return estimate._DRAWS


@pytest.fixture
def small_batches(monkeypatch, cold_draws):
    """A function that sets the Monte Carlo batch size for one test, so streams of a
    few thousand samples take the multi-batch paths. It empties the draw cache
    (cold_draws) first: a cached stream's key does not hold the size it was drawn in."""
    def use(batch: int) -> int:
        cold_draws.clear()
        monkeypatch.setattr(estimate, "_BATCH", batch)
        return batch
    return use


@pytest.fixture(scope="session")
def scalar_model():
    """M = N = 1, unit noise, unit isotropic fading variance."""
    return ChannelModel.isotropic(1, 1, 1.0, 1.0)


def random_hermitian_pd(rng, n, ridge=0.1):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + ridge * np.eye(n)


def random_model(rng, M, N, noise_var=1.0):
    return ChannelModel(M, N, noise_var, random_hermitian_pd(rng, M * N))


def random_input(rng, N, scale=1.0):
    return scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))


def radial_measure(ts, ws):
    """Scalar-channel measure with atoms sqrt(t) on the real axis."""
    atoms = np.array([[math.sqrt(t) + 0j] for t in ts])
    return DiscreteMeasure(atoms, ws)
