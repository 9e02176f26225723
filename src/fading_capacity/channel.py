"""Channel law of the noncoherent T=1 MIMO Rayleigh fading model.

The received vector is y = Hx + z with a fresh fading matrix H every symbol.
Conditioned on the input x, the output is a zero-mean circularly symmetric
complex Gaussian whose M x M covariance combines the noise floor with a
signal-dependent quadratic form of the fading covariance:

    C(x) = noise_var * I_M + (I_M kron x^H) Sigma (I_M kron x)

All densities are handled in the log domain (nats); the extreme input scales
produced by the shell-decoder constructions make plain densities underflow.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidCovarianceError, ScaleOverflowError

LOG_PI = math.log(math.pi)
LOG_PI_E = math.log(math.pi) + 1.0

HERMITIAN_ATOL = 1e-12

_U64 = (1 << 64) - 1


def _is_int(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    """seed as an int, ValueError unless it is an integer in [0, 2^64): a wider one
    would be masked to 64 bits and name the streams of another seed."""
    if not (_is_int(seed) and 0 <= seed <= _U64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _check_positive_int(value, name: str) -> None:
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


# JSON parsing, shared by the from_json constructors and the CLI. A path names a
# field, relative to the object being parsed ("" is that object itself).

def _at(path: str, key: str) -> str:
    return ".".join(p for p in (path, key) if p)


def _fail(path: str, message: str):
    """Raise ConfigError("path: message"); exc.path and exc.reason keep the two parts."""
    exc = ConfigError(f"{path}: {message}" if path else message)
    exc.path, exc.reason = path, message
    raise exc


def _require(obj, key: str, path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        _fail(_at(path, key), "missing required field")
    return obj[key]


def _number(value, path: str, positive: bool = False) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer past double range
        value = math.inf
    if not math.isfinite(value):  # json reads NaN and Infinity
        _fail(path, f"expected a finite number, got {value}")
    if positive and not value > 0.0:
        _fail(path, f"expected a positive number, got {value}")
    return value


def _integer(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"expected >= {minimum}, got {value}")
    return int(value)


def _numbers(value, path: str, count: int | None = None, positive: bool = False) -> list[float]:
    """The list of count finite numbers at path (count None: any nonzero count)."""
    if not isinstance(value, list) or not value or count not in (None, len(value)):
        _fail(path, f"expected a list of {count or 'one or more'} numbers")
    return [_number(v, f"{path}[{i}]", positive) for i, v in enumerate(value)]


def _vector(obj, path: str, dim: int | None = None) -> np.ndarray:
    """The vector {"re": [...], "im": [...]} at path: dim entries (dim None: as many as
    re has), im the same count, a missing or null im zeros."""
    re = _numbers(_require(obj, "re", path), _at(path, "re"), dim)
    im = obj.get("im")
    im = [0.0] * len(re) if im is None else _numbers(im, _at(path, "im"), len(re))
    return np.array(re) + 1j * np.array(im)


def _matrix(rows, path: str, dim: int) -> np.ndarray:
    """The dim x dim real matrix at path, as a list of dim rows of dim finite numbers."""
    if not isinstance(rows, list) or len(rows) != dim:
        _fail(path, f"expected {dim} rows of {dim} numbers")
    return np.array([_numbers(row, f"{path}[{i}]", dim) for i, row in enumerate(rows)])


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
        _check_positive_int(M, "M")
        _check_positive_int(N, "N")
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
        """Build from {"M": .., "N": .., "noise_var": .., "sigma": {...}}.

        M and N are integers >= 1 (not booleans) and noise_var a finite number > 0.
        sigma is either {"type": "isotropic", "var": v}, v a finite number > 0, or
        {"type": "dense", "re": [[..]], "im": [[..]]}: MN rows of MN finite numbers
        each, row-major, with im optional (zeros). Malformed input raises ConfigError
        naming the field, e.g. "M: expected an integer, got float"; a sigma that is
        not Hermitian positive definite raises InvalidCovarianceError.
        """
        M = _integer(_require(obj, "M", ""), "M", 1)
        N = _integer(_require(obj, "N", ""), "N", 1)
        noise_var = _number(_require(obj, "noise_var", ""), "noise_var", positive=True)
        spec = _require(obj, "sigma", "")
        kind = spec.get("type") if isinstance(spec, dict) else None
        if kind == "isotropic":
            var = _number(_require(spec, "var", "sigma"), "sigma.var", positive=True)
            return cls.isotropic(M, N, noise_var, var)
        if kind != "dense":
            _fail("sigma", 'expected {"type": "isotropic" | "dense", ...}')
        re = _matrix(_require(spec, "re", "sigma"), "sigma.re", M * N)
        im = spec.get("im")
        im = np.zeros_like(re) if im is None else _matrix(im, "sigma.im", M * N)
        return cls(M, N, noise_var, re + 1j * im)

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


def _as_output(model: ChannelModel, y) -> np.ndarray:
    """(1, M) array of the one output y, flattened; checked as _as_inputs checks inputs."""
    y = np.asarray(y, dtype=complex).reshape(1, -1)
    if y.shape[1] != model.M:
        raise ValueError(f"output must be one vector of dimension {model.M}, got {y.size} entries")
    if not np.all(np.isfinite(y)):
        raise ValueError("output has non-finite entries")
    return y


def solve_triangular(a, b):
    """a^{-1} b for a Cholesky factor a (M, M) and b (M, n): the solve behind quad_forms."""
    return np.linalg.solve(a, b)


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
        """Row-wise y^H C^{-1} y for outputs of shape (n, M); inf past double range."""
        z = solve_triangular(self.factor, np.atleast_2d(outputs).T)
        with np.errstate(over="ignore"):
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
    y = _as_output(model, y)
    return float(conditional_covariance(model, x).log_densities(y)[0])


def conditional_entropy(model: ChannelModel, x) -> float:
    """Differential entropy h(Y|X=x) = M ln(pi e) + ln det C(x), in nats."""
    cov = conditional_covariance(model, x)
    return model.M * LOG_PI_E + cov.log_det


def _complex_standard_normals(seed_key: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) i.i.d. CN(0,1) samples from a fully specified seed: real parts
    from the first standard_normal call, imaginary parts from the second, both
    scaled by sqrt(1/2) in place (no complex temporaries)."""
    rng = np.random.default_rng(seed_key)
    w = np.empty((count, dim), dtype=complex)
    w.real = rng.standard_normal((count, dim))
    w.imag = rng.standard_normal((count, dim))
    w *= math.sqrt(0.5)
    return w


def sample_output(model: ChannelModel, x, count: int, seed: int) -> np.ndarray:
    """Draw count i.i.d. outputs from p(.|x); rows are samples.

    Deterministic for a fixed seed in [0, 2^64) (ValueError outside it). The
    randomness state is taken by value, so concurrent callers should use disjoint seeds.
    """
    _check_positive_int(count, "count")
    cov = conditional_covariance(model, x)
    w = _complex_standard_normals(_check_seed(seed), int(count), model.M)
    return w @ cov.factor.T
