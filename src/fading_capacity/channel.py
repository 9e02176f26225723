"""Channel law of the noncoherent T=1 MIMO Rayleigh fading model.

The received vector is y = Hx + z with a fresh fading matrix H every symbol.
Conditioned on the input x, the output is a zero-mean circularly symmetric
complex Gaussian whose M x M covariance combines the noise floor with a
signal-dependent quadratic form of the fading covariance:

    C(x) = noise_var * I_M + (I_M kron x^H) Sigma (I_M kron x)

All densities are handled in the log domain (nats); the extreme input scales
produced by the shell-decoder constructions make plain densities underflow.

scipy.linalg is imported on first use, by solve_triangular: only quad_forms
(log_density, log_densities, the CLI's density command) solves against a
Cholesky factor. The estimators work on inverse factors instead, so the
rest of the package never loads it, and a fresh process starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCovarianceError, ScaleOverflowError

LOG_PI = math.log(math.pi)
LOG_PI_E = math.log(math.pi) + 1.0

HERMITIAN_ATOL = 1e-12

_U64 = (1 << 64) - 1


def eigen_bounds(sigma) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a Hermitian PD matrix.

    Raises InvalidCovarianceError if the matrix is not Hermitian within
    1e-12 or has an eigenvalue <= 0.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidCovarianceError(f"covariance must be square, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma.view(float))):
        raise InvalidCovarianceError("covariance has non-finite entries")
    if np.max(np.abs(sigma - sigma.conj().T)) > HERMITIAN_ATOL:
        raise InvalidCovarianceError("covariance is not Hermitian within 1e-12")
    eigs = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
    if eigs[0] <= 0.0:
        raise InvalidCovarianceError(
            f"covariance must be positive definite; smallest eigenvalue is {eigs[0]:.3e}"
        )
    return float(eigs[0]), float(eigs[-1])


class ChannelModel:
    """Noncoherent Rayleigh channel with N transmit and M receive dimensions.

    sigma is the MN x MN Hermitian positive-definite covariance of the fading
    coefficients, indexed row-major by (output index m, input index n).
    Instances are immutable after construction and safe to share.

    Attributes:
        M, N: output/input dimensions.
        noise_var: additive noise variance per output coordinate.
        sigma: fading covariance (symmetrized copy).
        lambda_min, lambda_max: cached extreme eigenvalues of sigma.
        iso_var: scalar v if sigma == v * I (isotropic fading), else None.
    """

    def __init__(self, M: int, N: int, noise_var: float, sigma):
        if not (isinstance(M, (int, np.integer)) and M >= 1):
            raise ValueError(f"M must be a positive integer, got {M!r}")
        if not (isinstance(N, (int, np.integer)) and N >= 1):
            raise ValueError(f"N must be a positive integer, got {N!r}")
        noise_var = float(noise_var)
        if not (noise_var > 0.0 and math.isfinite(noise_var)):
            raise ValueError(f"noise_var must be positive and finite, got {noise_var!r}")
        sigma = np.asarray(sigma, dtype=complex)
        d = M * N
        if sigma.shape != (d, d):
            raise InvalidCovarianceError(
                f"sigma must have shape ({d}, {d}) for M={M}, N={N}, got {sigma.shape}"
            )
        self.M = int(M)
        self.N = int(N)
        self.noise_var = noise_var
        self.lambda_min, self.lambda_max = eigen_bounds(sigma)
        self.sigma = 0.5 * (sigma + sigma.conj().T)
        self.sigma.setflags(write=False)
        self._sigma4 = self.sigma.reshape(M, N, M, N)
        v = float(np.mean(np.diag(self.sigma)).real)
        if np.max(np.abs(self.sigma - v * np.eye(d))) <= HERMITIAN_ATOL:
            self.iso_var = v
        else:
            self.iso_var = None

    @classmethod
    def isotropic(cls, M: int, N: int, noise_var: float, var: float) -> "ChannelModel":
        """Channel with sigma = var * identity (law depends on the input norm only)."""
        return cls(M, N, noise_var, float(var) * np.eye(M * N))

    @classmethod
    def from_json(cls, obj: dict) -> "ChannelModel":
        """Build from {"M":..,"N":..,"noise_var":..,"sigma":{...}}.

        The sigma object is either {"type":"isotropic","var":v} or
        {"type":"dense","re":[[..]],"im":[[..]]} with row-major MN x MN entries.
        """
        M, N = int(obj["M"]), int(obj["N"])
        noise_var = float(obj["noise_var"])
        spec = obj["sigma"]
        kind = spec.get("type")
        if kind == "isotropic":
            return cls.isotropic(M, N, noise_var, float(spec["var"]))
        if kind == "dense":
            re = np.asarray(spec["re"], dtype=float)
            im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float)
            return cls(M, N, noise_var, re + 1j * im)
        raise InvalidCovarianceError(f"unknown sigma type {kind!r}")

    def __repr__(self):
        kind = f"isotropic var={self.iso_var}" if self.iso_var is not None else "dense"
        return f"ChannelModel(M={self.M}, N={self.N}, noise_var={self.noise_var}, {kind})"


def _as_inputs(model: ChannelModel, xs) -> np.ndarray:
    """(K, N) array of the K inputs xs, each flattened; ragged xs raise ValueError too."""
    xs = np.asarray(xs, dtype=complex)
    xs = xs.reshape(xs.shape[0], -1)
    if xs.shape[1] != model.N:
        raise ValueError(f"input must have dimension {model.N}, got {xs.shape[1:]}")
    if not np.all(np.isfinite(xs.view(float))):
        raise ValueError("input has non-finite entries")
    return xs


def _as_input(model: ChannelModel, x) -> np.ndarray:
    return _as_inputs(model, [x])[0]


def _as_outputs(model: ChannelModel, y) -> np.ndarray:
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    if y.shape[-1] != model.M:
        raise ValueError(f"output must have dimension {model.M}, got {y.shape}")
    return y


def solve_triangular(a, b, **kwargs):
    """scipy.linalg.solve_triangular, imported on the first call (see the module docstring)."""
    from scipy.linalg import solve_triangular as solve
    return solve(a, b, **kwargs)


def input_norm_sq(x) -> float:
    """Squared norm tr(x x^H) = ||x||^2 of an input vector."""
    x = np.asarray(x, dtype=complex)
    return float(np.real(np.vdot(x, x)))


@dataclass(frozen=True)
class ConditionalCovariance:
    """Conditional output covariance C(x) with its Cholesky factor.

    matrix is Hermitian positive definite; factor is lower triangular with
    factor @ factor^H == matrix; log_det is the natural-log determinant.
    """

    matrix: np.ndarray
    log_det: float
    factor: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def quad_forms(self, outputs) -> np.ndarray:
        """Row-wise y^H C^{-1} y for outputs of shape (n, M)."""
        z = solve_triangular(self.factor, np.atleast_2d(outputs).T, lower=True,
                             check_finite=False)
        return np.sum(np.abs(z) ** 2, axis=0)

    def log_densities(self, outputs) -> np.ndarray:
        """Row-wise ln p(y|x) under this covariance, in nats."""
        norm = self.dim * LOG_PI + self.log_det
        return -self.quad_forms(outputs) - norm


def _conditional_covariances(model: ChannelModel, xs):
    """(matrices, factors, log_dets) of C(x) for the K rows of xs, batched;
    conditional_covariance is the one-point case. ScaleOverflowError if C(x) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        quad = np.einsum("kn,mnpq,kq->kmp", xs.conj(), model._sigma4, xs)
        matrix = model.noise_var * np.eye(model.M) + quad
        matrix = 0.5 * (matrix + np.conj(np.swapaxes(matrix, -1, -2)))
    if not np.all(np.isfinite(matrix)):
        raise ScaleOverflowError("conditional covariance entries exceed double range")
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:  # only reachable with a defective sigma
        raise InvalidCovarianceError(f"conditional covariance is not PD: {exc}") from exc
    log_det = 2.0 * np.sum(np.log(np.real(np.diagonal(factor, axis1=-2, axis2=-1))), axis=-1)
    return matrix, factor, log_det


def conditional_covariance(model: ChannelModel, x) -> ConditionalCovariance:
    """C(x) = noise_var * I + (I kron x^H) Sigma (I kron x), factorized."""
    matrix, factor, log_det = _conditional_covariances(model, _as_input(model, x)[None])
    return ConditionalCovariance(matrix=matrix[0], log_det=float(log_det[0]), factor=factor[0])


def log_density(model: ChannelModel, y, x) -> float:
    """ln p(y|x) = -y^H C(x)^{-1} y - M ln(pi) - ln det C(x), in nats."""
    y = _as_outputs(model, y)
    cov = conditional_covariance(model, x)
    return float(cov.log_densities(y)[0])


def conditional_entropy(model: ChannelModel, x) -> float:
    """Differential entropy h(Y|X=x) = M ln(pi e) + ln det C(x), in nats."""
    cov = conditional_covariance(model, x)
    return model.M * LOG_PI_E + cov.log_det


def _complex_standard_normals(seed_key: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) i.i.d. CN(0,1) samples from a fully specified seed."""
    rng = np.random.default_rng(seed_key)
    w = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return w * math.sqrt(0.5)


def sample_output(model: ChannelModel, x, count: int, seed: int) -> np.ndarray:
    """Draw count i.i.d. outputs from p(.|x); rows are samples.

    Deterministic for a fixed seed. The randomness state is taken by value,
    so concurrent callers should use disjoint seeds.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cov = conditional_covariance(model, x)
    w = _complex_standard_normals(int(seed) & _U64, int(count), model.M)
    return w @ cov.factor.T
