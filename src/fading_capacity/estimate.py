"""Integrals over the output space: seeded Monte Carlo and radial quadrature.

All stochastic results are McEstimate values (point estimate, standard error,
sample count, seed) and are bit-reproducible for a fixed configuration:
sample streams are derived counter-style from (seed, stream index, batch
index), so batches can be evaluated independently and reduced in a fixed
order. Mutual information uses per-atom stratified sampling: mixture
components produced by the shell-decoder constructions are separated by
hundreds of orders of magnitude, and sampling the mixture directly would
never visit the small ones. When the conditional law is radially symmetric,
the output radius is additionally stratified over equiprobable shells, which
tames the large cross-term variance at inputs far outside the measure's
support. The squared radius is the closed-form integer-order Gamma(M)
quantile (_gamma_quantile), each half solved on its own tail's finite sum.

One sample path serves the estimators, and kkt_scan and the optimizer on
dense channels. A stream's draws depend on (M, cfg, stream index) alone, so
_stream_draws shares them across the process within a byte budget, one
read-only float64 array per batch on every channel: on isotropic channels the
normalized squared radii alone, since a sample's radial stratum is its stream
position modulo the stratum count and stream_stats sums the strata by
position; on dense channels the monomials of the normals. A
_ConditionalLaws object forms component-major (atoms x samples) log densities
from them, one (k, n) buffer per batch, and reduces them in place with
measure._weighted_mix. _ConditionalLaws.stream_stats is the one reduction of
a stream to means and SEs, for a (P, N) stack of inputs (one input is P = 1),
so all callers agree bit for bit. On dense channels y = L_x w with w standard
normal, so log densities are quadratic forms in w: one small matmul of their
coefficients with each batch's monomials of w, every input on one stream in
one pass, each with its own sums, so a value is the same alone or in a scan.
On isotropic channels kkt_scan, the optimizer and the Fano report's I(mu)
integrate ln f_mu, a function of ||y||^2 alone, by radial quadrature on a
support's one _RadialTable: plain panels, 5 ceil(sqrt(M) / 3) to an octave,
that no weight vector changes. The public estimators stay Monte Carlo, its
independent cross-check. It is batched (_ConditionalLaws.cross_quadratures):
all inputs of a scan or a support are grouped by the node count their
Gamma(M, c_x) law needs, each group is one array, formed and weighted in
place, and each row reduces on its own, so no value depends on the batch.
A support's entropies come from one batched factorization (neg_entropies).
Shell probabilities (_shell_probabilities) take inputs and radii in logs and
are exact at any scale on every channel: gamma tails when C(x) is a scalar
matrix, else hypoexponential tails in the eigenvalues of C(x) (_hypoexp_tail).

The integer-order gamma and the hypoexponential tails (chi_square_tail,
log_chi_square_tail, all shell masses) are sums of positive Poisson terms
(_poisson_terms). They, the isotropic quadrature and its tail quantile
(_tail_quantile) run on numpy and closed forms, as does the whole package:
numpy is its only dependency.

Every command is one process, so its peak resident set is part of its cost.
The Gauss-Legendre rule is written out as constants, so no process loads
numpy.polynomial (9 modules, 0.6-1.0 MB of peak). A draw-cache miss that
will be kept evicts before it forms the stream's arrays, so the cached draws
and the one stream being drawn peak at _DRAW_BUDGET plus that stream.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .channel import (_U64, LOG_PI_E, ChannelModel, _as_input, _check_positive_int,
                      _complex_standard_normals, _conditional_covariances, _is_int,
                      conditional_entropy)
from .errors import NotConvergedError, ScaleOverflowError
from .measure import DiscreteMeasure, _weighted_mix

_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10  # fdlibm: n * hi exact, |n| < 2^21

# Radial quadrature: the 12-point Gauss-Legendre rule on [-1, 1] per panel, the
# Gamma(M) tail mass left beyond the last octave, and the panels per octave per
# ceil(sqrt(M) / 3) (4 are 2e-10 off at a 1e-12 tail weight). The rule is the reprs
# of numpy.polynomial.legendre.leggauss(12), mirrored (a test pins them bit for bit).
_GL_HALF_NODES = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                           0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_HALF_WEIGHTS = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                             0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
_TAIL_MASS = 1e-18
_OCTAVE_PARTS = 5
_DEFAULT_BATCH = 50_000
# Largest exponent allowed for a plain-domain scale (double overflows at ~709.8).
_LOG_CAP = 700.0

# Stream tag outside the per-atom index range.
_CROSS_STREAM = 1 << 20
# Bytes of stream draws kept per process (_stream_draws): three M = 2 streams of 20k samples.
_DRAW_BUDGET = 2 << 20
_DRAWS: OrderedDict = OrderedDict()  # (M, iso, cfg, stream) -> (draws, bytes), oldest use first
_DRAWS_LOCK = threading.Lock()


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit stream seed from a base seed and an index path."""
    entropy = [int(seed) & _U64] + [int(p) & _U64 for p in path]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for one estimator call.

    samples counts draws per stream (per atom for mutual information); isotropic
    streams split them over up to 64 radial strata, dense streams have one. batch is
    the evaluation chunk (default min(samples, 50000)); exact shell masses use neither.
    """

    samples: int
    seed: int
    batch: int | None = None

    def __post_init__(self):
        if not (_is_int(self.samples) and self.samples >= 100):
            raise ValueError(f"samples must be an integer >= 100, got {self.samples!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.batch is not None and not (_is_int(self.batch) and 1 <= self.batch <= self.samples):
            raise ValueError(f"batch must be an integer in [1, samples], got {self.batch!r}")

    @property
    def effective_batch(self) -> int:
        return self.batch if self.batch is not None else min(self.samples, _DEFAULT_BATCH)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo result: value, standard error, total draws, base seed.

    Exact results (closed forms, radial quadratures) carry std_error 0 and
    samples 0.
    """

    value: float
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class OutputShell:
    """Annulus of output vectors with rho1 <= ||y|| < rho2 (radius units)."""

    rho1: float
    rho2: float

    def __post_init__(self):
        if not (0.0 <= self.rho1 <= self.rho2):
            raise ValueError(f"shell radii must satisfy 0 <= rho1 <= rho2, "
                             f"got [{self.rho1}, {self.rho2})")


def _gamma_quantile(m: int, q, qbar) -> np.ndarray:
    """Closed-form Gamma(m, 1) quantile: s with P(m, s) = q = 1 - qbar, integer m >= 1.

    Two-tail rule: q <= 1/2 solves P = s^m e^-s S / m!, the rest Q(m, s) = qbar with
    Q = s^(m-1) e^-s U / (m-1)! (S, U positive finite sums), so 1 - q is never formed.
    Halley steps in ln s on ln(s^a e^-s S_or_U / (a! p)), the powers of two of s, p and
    a! summed as one integer times ln 2: finite at any m, and within 4 ulp at m <= 8
    where a plain lgamma residual is 10-160 ulp off. m = 1 is -log1p(-q) or -log(qbar).
    """
    q, qbar, out = np.asarray(q, float), np.asarray(qbar, float), np.zeros(np.shape(q))
    if m == 1:
        return -np.log(qbar, out=np.log1p(-q, out=out, where=q <= 0.5), where=q > 0.5)
    for upper, mask, p in ((False, (q > 0.0) & (q <= 0.5), q), (True, q > 0.5, qbar)):
        p, a = p[mask], m - 1 if upper else m
        fact = math.factorial(a)  # a! p = mant (a! / 2^bits) 2^(exp2 + bits)
        (mant, exp2), bits = np.frexp(p), fact.bit_length()
        log_mant = np.log(mant * (fact / (1 << bits)))
        s = a - np.log(p) if upper else np.exp((np.log(p) + math.lgamma(m + 1)) / m)
        coef = [1.0]  # S: x = s/m <= 1, terms to 2^-60; U: x = (m-1)/s, m terms
        while coef[-1] > 2.0 ** -60:
            coef.append(coef[-1] * ((m - len(coef)) / a if upper else m / (m + len(coef))))
        for _ in range(32):
            x, z = (a / s if upper else s / m), np.full(s.shape, coef[-1])
            for c in coef[-2::-1]:
                z *= x
                z += c
            k = np.frexp(s * math.sqrt(2.0))[1] - 1  # s / 2^k in [1/sqrt 2, sqrt 2)
            n = a * k - exp2 - bits
            f = (a * np.log(np.ldexp(s, -k)) + (n * _LN2_HI - s) + n * _LN2_LO
                 + np.log(z) - log_mant)
            d = -s / z if upper else m / z  # d ln(tail) / d ln s
            step = f / (d + 0.5 * f * (s + d - m))
            s = s + s * np.expm1(-step)
            if np.all(np.abs(step) <= 1e-8):
                break
        else:
            raise NotConvergedError(f"Gamma({m}) quantile: Halley steps did not settle")
        out[mask] = s
    return out


@functools.cache
def _tail_quantile(m: int) -> float:
    """Gamma(m, 1) quantile with _TAIL_MASS above it: one Halley solve per m."""
    return float(_gamma_quantile(m, 1.0, _TAIL_MASS))


def _finite_norms_sq(xs: np.ndarray, model: ChannelModel) -> np.ndarray:
    """Squared norms of the rows of xs; ScaleOverflowError if one is not finite, or on
    isotropic channels if what the isotropic paths form from its output variance c =
    noise_var + iso_var ||x||^2 is not: the law's tail edge c s_tail (_tail_quantile;
    s_tail > pi, so pi c is finite too), the octave edge up to twice it that covers
    it, and its ratio to noise_var."""
    with np.errstate(over="ignore"):
        norms_sq = np.sum(np.abs(xs) ** 2, axis=1)
        tops = [norms_sq]
        if model.iso_var is not None:
            edge = (model.noise_var + model.iso_var * norms_sq) * _tail_quantile(model.M)
            tops += [2.0 * edge, edge / model.noise_var]
    if not all(np.all(np.isfinite(top)) for top in tops):
        raise ScaleOverflowError("input squared norms or variances exceed double range")
    return norms_sq


def _stratified_radii_sq(seed_key: int, offset: int, nb: int, m: int,
                         n_strata: int) -> np.ndarray:
    """Normalized squared radii s = ||y||^2 / c for y ~ CN(0, c I_m).

    s follows Gamma(m, 1); draws are stratified over n_strata equiprobable
    radial shells, the stratum id cycling from the given offset so allocation
    stays balanced across batches: s = _gamma_quantile of q = (id + u) / n_strata,
    with 1 - q as (n_strata - id - u) / n_strata. Only s is returned: the id of
    the sample at stream position p is p % n_strata, so a reduction takes it
    from the position rather than from a stored array.
    """
    u = np.random.default_rng(seed_key).random(nb)
    ids = (offset + np.arange(nb)) % n_strata
    return _gamma_quantile(m, (ids + u) / n_strata, (n_strata - ids - u) / n_strata)


def _n_strata(cfg: McConfig) -> int:
    """Radial strata of isotropic streams: at least 8 draws each, at most 64."""
    return max(1, min(64, cfg.samples // 8))


def _evict(room: int) -> None:
    """Evict least recently used streams until room more bytes fit in _DRAW_BUDGET.
    The caller holds _DRAWS_LOCK."""
    retained = sum(nbytes for _, nbytes in _DRAWS.values())
    while retained + room > _DRAW_BUDGET:
        retained -= _DRAWS.popitem(last=False)[1][1]


def _stream_draws(m: int, iso: bool, cfg: McConfig, stream: int) -> list:
    """Per-batch draws of one stream, seeded by (seed, stream, batch), each one
    read-only float64 array: the (n,) normalized squared radii on isotropic
    channels (_stratified_radii_sq; a sample's stratum is its stream position
    modulo _n_strata, so no id is stored), else the (M^2, n) _monomials of
    complex standard normals w (n, M). Every caller in the process shares them,
    least recently used evicted first, within _DRAW_BUDGET bytes; a larger
    stream is returned without being kept, and evicts nothing. A stream's bytes
    are known before it is drawn (8 per sample isotropic, 8 M^2 dense), so a
    miss that will be kept evicts before it forms its first batch's arrays: the
    cache and the stream being drawn peak at the budget plus that stream. On
    dense channels that is once the batch's normals are drawn (at M >= 2 no
    larger than its monomials): evicting before them gave the same peak but
    about 110 more minor page faults per fano-cli pass (allocator layout). Two
    callers that miss on one key at once both draw it, and get equal arrays;
    evicting again after the insertion keeps the budget then too.
    """
    key, batch = (m, iso, cfg, stream), cfg.effective_batch
    size = cfg.samples * 8 * (1 if iso else m * m)
    keep = size <= _DRAW_BUDGET
    with _DRAWS_LOCK:
        if key in _DRAWS:
            _DRAWS.move_to_end(key)
            return _DRAWS[key][0]
    draws = []
    for b, start in enumerate(range(0, cfg.samples, batch)):
        seed_key, nb = derive_seed(cfg.seed, stream, b), min(batch, cfg.samples - start)
        w = None if iso else _complex_standard_normals(seed_key, nb, m)
        if keep and b == 0:
            with _DRAWS_LOCK:
                _evict(size)
        if iso:  # strata continue from the batches before
            draw = _stratified_radii_sq(seed_key, start, nb, m, _n_strata(cfg))
        else:
            draw, w = _monomials(w), None
        draw.flags.writeable = False
        draws.append(draw)
    if keep:
        with _DRAWS_LOCK:
            _DRAWS[key] = draws, size
            _evict(0)
    return draws


def _sample_moments(s1, s2, count):
    """Sample means and the variances of those means, per entry, from the sums
    s1 and s2 of count values and of their squares."""
    means = s1 / count
    return means, np.maximum(s2 - s1 * means, 0.0) / np.maximum(count - 1, 1) / count


# stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi) / 2 for k <= 15 (Loader 2000),
# and the odd powers of bd0's series: at |v| < 0.1 the 9th term is below 2^-53 of the sum.
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_BD0_ODD = 2.0 * np.arange(1, 9) + 1.0


def _stirlerr(k: int) -> float:
    """ln k! - (k + 1/2) ln k + k - ln(2 pi) / 2: the table, else the Stirling series."""
    if k < len(_STIRLERR):
        return _STIRLERR[k]
    s = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188 - 691 / 360360 * s) * s)
                                 * s) * s) * s) / k


def _bd0(k: int, t: float) -> float:
    """k ln(k/t) + t - k, by its series in v = (k - t)/(k + t) near k = t (Loader 2000)."""
    if abs(k - t) >= 0.1 * (k + t):
        x = t / k  # for x in [1/4, 2], k ((x - 1) - ln x) pays |t - k| ulp for x, not k ulp
        return k * ((x - 1.0) - math.log(x)) if 0.25 <= x <= 2.0 else k * math.log(k / t) + t - k
    v = (k - t) / (k + t)
    return (k - t) * v + 2.0 * k * float(np.sum(v ** _BD0_ODD / _BD0_ODD))


def _poisson_terms(t: float, k0: int, first: int, last) -> tuple[float, float, np.ndarray]:
    """Poisson(t) masses p_k, k = first..last, as e^log_p / norm = p_k0 (Loader 2000) times
    the ratios p_k / p_k0: running products of k / t below k0 and t / k above it."""
    log_p, norm = ((-t, 1.0) if k0 == 0 else
                   (-_stirlerr(k0) - _bd0(k0, t), math.sqrt(2.0 * math.pi * k0)))
    down = np.cumprod(np.arange(k0, first, -1.0) / t)
    up = np.cumprod(t / np.arange(k0 + 1.0, last + 1.0))
    return log_p, norm, np.concatenate((down[::-1], [1.0], up))


def _log_gamma_tail(m: int, t: float, upper: bool) -> float:
    """ln Q(m, t) (upper) or ln P(m, t): the Poisson(t) mass on k < m, or on k >= m.

    The sum is anchored at the tail's largest term p_k0 (_poisson_terms), up to
    10 sqrt(k0 + 1) + 20 terms a side: every term past them is below e^-49 p_k0. No
    term is subtracted and p_k0 stays in logs: ln Q is finite wherever Q is nonzero,
    and -t exactly at m = 1. P is for t below the mode; up to the mode, where Q is
    near 1, ln Q is log1p(-P) from that smaller tail.
    """
    if t == 0.0:
        return 0.0 if upper else -math.inf
    if t == math.inf:
        return -math.inf if upper else 0.0
    if upper and t <= m - 1:
        return math.log1p(-math.exp(_log_gamma_tail(m, t, False)))
    lo, hi = (0, m - 1) if upper else (m, math.inf)
    k0 = int(min(max(math.floor(t), lo), hi))
    w = int(10.0 * math.sqrt(k0 + 1.0)) + 20
    log_p, norm, terms = _poisson_terms(t, k0, max(lo, k0 - w), min(hi, k0 + w))
    return log_p + math.log(math.fsum(terms) / norm)


def _hypoexp_tail(mu: np.ndarray, tau: float, upper: bool, floor: float = 0.0) -> float:
    """P(S > t) (upper) or P(S <= t), S = sum_m lam_m E_m with E_m ~ Exp(1) independent; mu
    = lam / scale ascending, tau = t / lam_1. 0, unsummed, if a gamma tail bounding it <= floor.

    Uniformization at rate 1 / lam_1 (Ross): P(S > t) = sum_k Pois(tau; k) P(G > k), G - M
    a sum of Geometric(lam_1 / lam_m) counts on {0, 1, ...}, built by u_j = sum_i q^(j-i)
    h_i in log2 passes of q^s u_(j-s). Terms are positive; they run to 2^-60 of the sum.
    """
    m = mu.size
    if math.exp(_log_gamma_tail(m, tau * (mu[0] / mu[-1]) if upper else tau, upper)) <= floor:
        return 0.0
    last = int(tau + 10.0 * math.sqrt(tau + 1.0)) + 20 + m
    while True:
        h, surv = np.eye(1, last + 1 - m)[0], np.zeros(last + 1 - m)  # G - M = 0 before any count
        for mu_m in mu[mu > mu[0]]:
            q, p = (mu_m - mu[0]) / mu_m, mu[0] / mu_m
            u, s, log_q = h.copy(), 1, math.log(q) if q < 0.5 else math.log1p(-p)
            while s < u.size and (qs := math.exp(s * log_q)) > 0.0:
                u[s:] += qs * u[:-s]
                s *= 2
            surv, h = surv + q * u, p * u
        log_p, norm, pois = _poisson_terms(tau, int(tau), 0, last)
        terms = pois * np.concatenate((np.ones(m), surv) if upper else (np.zeros(m), np.cumsum(h)))
        total = math.fsum(terms)
        if terms[-1] * terms[-1] <= 2.0 ** -60 * total * (terms[-2] - terms[-1]):
            return math.exp(log_p) / norm * total
        last *= 2


def chi_square_tail(t: float, m: int) -> float:
    """P(||y||^2 > t*c) for y ~ CN(0, c I_m): exp(-t) sum_{k<m} t^k / k!.

    This is the regularized upper incomplete gamma function Q(m, t) of
    integer order m, summed from its Poisson terms (_log_gamma_tail).
    """
    _check_positive_int(m, "m")
    if not t >= 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    return math.exp(_log_gamma_tail(m, t, True))


def log_chi_square_tail(log_t: float, m: int) -> float:
    """log of chi_square_tail(exp(log_t), m), stable for extreme thresholds.

    Nothing underflows (_log_gamma_tail): the value is finite wherever the
    tail is, up to t = e^709 (-inf past it), and -t exactly for m = 1.
    """
    _check_positive_int(m, "m")
    if math.isnan(log_t):
        raise ValueError("log threshold must not be NaN")
    return _log_gamma_tail(m, math.exp(log_t) if log_t <= 709.0 else math.inf, True)


def _monomials(w: np.ndarray) -> np.ndarray:
    """(M^2, n) second-order monomials of w (n, M): |w_p|^2, then Re and Im of
    conj(w_p) w_q for p < q. The cross rows keep numpy's complex product (other
    forms change the last bit of some) and precede the output: after it, their
    freed temporaries topped the heap, malloc trimmed them, and the next draw
    faulted them in again."""
    n, m = w.shape
    p, q = np.triu_indices(m, 1)
    w = w.T
    cross = w[p].conj() * w[q]
    out = np.empty((m * m, n))
    np.square(w.real, out=out[:m])
    out[:m] += np.square(w.imag)
    out[m:m + p.size], out[m + p.size:] = cross.real, cross.imag
    return out


def _norm_coefficients(a: np.ndarray, upper) -> np.ndarray:
    """(..., M^2) rows c with c @ _monomials(w) = ||A w||^2 for a (..., M, M), any
    leading axes: with G = A^H A, the diagonal of G, then 2 Re G_pq and -2 Im G_pq
    for p < q."""
    g = np.conj(np.swapaxes(a, -1, -2)) @ a
    off = g[..., upper[0], upper[1]]
    return np.concatenate((np.diagonal(g, axis1=-2, axis2=-1).real,
                           2.0 * off.real, -2.0 * off.imag), axis=-1)


class _RadialTable:
    """Composite Gauss-Legendre nodes in u = ||y||^2 and every atom's ln p(u|x_j) there.

    Panels are the octaves [c0 2^(j-1), c0 2^j] up from the noise variance c0
    (octave 0 is [0, c0]), each cut into _OCTAVE_PARTS ceil(sqrt(M) / 3) equal
    panels, narrower than the Gamma(M) peak at any order. No node depends on the
    weights, so one table serves every weight vector and input of a support;
    ln f_mu there is one _weighted_mix per tabulated block (mixture). The
    atoms' octaves are tabulated in one block, later ones one at a time, so a
    node's value does not depend on which inputs came before. An input needs
    the nodes up to the end of the first octave that holds its law's tail
    (node_counts). The table holds the laws' arrays, not the laws: a reference
    back would keep both alive until the cyclic garbage collector runs.
    """

    def __init__(self, laws: "_ConditionalLaws"):
        self.inv_var, self.log_norm = laws.inv_var, laws.log_norm
        self.noise_var = laws.model.noise_var
        parts = _OCTAVE_PARTS * math.ceil(math.sqrt(laws.model.M) / 3.0)
        self.fractions = np.arange(parts + 1) / parts  # panel edges, in octave widths
        self.per_octave = _GL_NODES.size * parts
        self.tops: list[float] = []  # each octave's upper edge in u
        self.blocks: list[int] = []  # node count up to the end of each tabulated block
        u_max = float(np.max(laws.scalar_var)) * laws.tail_s
        self._tabulate(max(0, math.ceil(math.log2(u_max / self.noise_var))))

    def _tabulate(self, top: int):
        """Append the octaves after the last tabulated one, up to octave top."""
        j = np.arange(len(self.tops), top + 1)
        hi = np.ldexp(self.noise_var, j)
        lo = np.where(j > 0, 0.5 * hi, 0.0)
        edges = lo[:, None] + (hi - lo)[:, None] * self.fractions
        mid, half = 0.5 * (edges[:, 1:] + edges[:, :-1]), 0.5 * (edges[:, 1:] - edges[:, :-1])
        u = (mid[..., None] + half[..., None] * _GL_NODES).ravel()
        du = (half[..., None] * _GL_WEIGHTS).ravel()
        logp = np.multiply.outer(-self.inv_var, u)
        logp -= self.log_norm[:, None]
        if self.tops:
            u, du = np.concatenate((self.u, u)), np.concatenate((self.du, du))
            logp = np.concatenate((self.logp, logp), axis=1)
        self.tops += hi.tolist()
        self.blocks.append(u.size)
        self.u, self.du, self.logp = u, du, logp

    def node_counts(self, u_max: np.ndarray) -> np.ndarray:
        """Node counts of the octaves that cover [0, u_max], tabulating new ones."""
        while self.tops[-1] < u_max.max():
            self._tabulate(len(self.tops))
        return (np.searchsorted(self.tops, u_max) + 1) * self.per_octave

    def mixture(self, weights: np.ndarray) -> np.ndarray:
        """ln f_mu at every node, one _weighted_mix per tabulated block: a matrix product's
        bits depend on its width, so no value depends on how far the table grew later."""
        bounds = zip([0] + self.blocks, self.blocks)
        return np.concatenate([_weighted_mix(self.logp[:, a:b], weights) for a, b in bounds])


class _ConditionalLaws:
    """Pre-factored conditional output laws p(.|x_j) for a fixed atom list.

    For isotropic fading the law depends on the input norm only, so the
    per-sample work reduces to outer products of squared radii against the
    per-atom scalar variances. Otherwise the atoms' Cholesky factors L_j and
    their inverses are kept, and log densities are quadratic forms in the
    draws' monomials. log_norm holds ln det(pi C_j) on both paths; the draws
    come from _stream_draws (_draws). stream_stats takes a stack of inputs
    that share a stream, writes each batch's log densities into one (k, n)
    buffer and takes the mixture in place; on dense channels it takes every
    input in one pass over the draws. On isotropic channels the radial
    quadrature takes a batch of input variances at once (radial_weights,
    cross_quadratures) on the atoms' one _RadialTable (table), built on
    first use and kept: every weight vector and input share it.
    neg_entropies takes every atom's entropy from one batched
    factorization, the dense laws' own. An atom whose squared norm or
    variance is not a finite double raises ScaleOverflowError.
    """

    def __init__(self, model: ChannelModel, atoms):
        self.model = model
        self.atoms = np.atleast_2d(np.asarray(atoms, dtype=complex))
        if self.atoms.shape[1] != model.N:
            raise ValueError(f"measure dimension {self.atoms.shape[1]} != "
                             f"channel input dimension {model.N}")
        self.norms_sq = _finite_norms_sq(self.atoms, model)
        self.iso = model.iso_var is not None
        if self.iso:
            self.scalar_var = model.noise_var + model.iso_var * self.norms_sq
            self.log_norm = model.M * np.log(np.pi * self.scalar_var)
            self.inv_var = 1.0 / self.scalar_var
            self.tail_s = _tail_quantile(model.M)
        else:
            _, self.factors, self.log_det = _conditional_covariances(model, self.atoms)
            self.inv_factors = np.linalg.inv(self.factors)
            self.log_norm = model.M * math.log(math.pi) + self.log_det
            self.upper = np.triu_indices(model.M, 1)

    def neg_entropies(self) -> np.ndarray:
        """-h(Y|x_j) = -(M ln(pi e) + ln det C_j) per atom, from one batched factorization."""
        log_det = _conditional_covariances(self.model, self.atoms)[2] if self.iso else self.log_det
        return -(self.model.M * LOG_PI_E + log_det)

    def _draws(self, cfg: McConfig, stream: int) -> list:
        """_stream_draws of this channel. A stream the cache does not keep (M = 4 at 20k samples)
        stays until the next is drawn: freed first, its pages were trimmed and faulted in again."""
        key = (self.model.M, self.iso, cfg, stream)
        draws = _stream_draws(*key)
        self._unkept = None if key in _DRAWS else draws
        return draws

    def _form_coefficients(self, factor) -> np.ndarray:
        """(..., k, M^2) coefficients of -w^H G_j w, G_j = A_j^H A_j with A_j =
        L_j^-1 L_x, for the (..., M, M) factors L_x: one batched product."""
        return -_norm_coefficients(self.inv_factors @ factor[..., None, :, :], self.upper)

    def _log_densities(self, coef: np.ndarray, monomials: np.ndarray, out=None) -> np.ndarray:
        """(k, n) ln p(y|x_j) = coef @ monomials - log_norm[j] at one batch's outputs,
        written to out if given."""
        logp = np.matmul(coef, monomials, out=out)
        logp -= self.log_norm[:, None]
        return logp

    @functools.cached_property
    def table(self) -> _RadialTable:
        """The support's one _RadialTable, isotropic only: built on first use, then kept."""
        return _RadialTable(self)

    def radial_weights(self, cxs: np.ndarray, counts: np.ndarray):
        """Groups (rows, q, n), isotropic only: for the inputs of variances cxs that
        need n nodes (counts: table.node_counts), E[g(||Y||^2)] ~ q @ g(table.u[:n]).

        ||Y||^2 ~ Gamma(M, c_x); a row of q is its density times the node
        weights of the octaves that hold all but _TAIL_MASS of it. A generator:
        each group is formed in place in one array when it is taken, the
        caller's to overwrite.
        """
        m, order = self.model.M, np.argsort(counts, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
            n, cx = int(counts[rows[0]]), cxs[rows, None]
            q = self.table.u[:n] / cx  # r, overwritten by q in place
            if m == 1:
                np.negative(q, out=q)
            else:  # r^(m-1) e^-r / (m-1)! in one exp: each factor leaves double range near M = 150
                np.subtract((m - 1) * np.log(q), q, out=q)
                q -= math.lgamma(m)
            yield rows, np.divide(np.multiply(np.exp(q, out=q), self.table.du[:n], out=q),
                                  cx, out=q), n

    def cross_quadratures(self, cxs, weights) -> np.ndarray:
        """E_{Y~p(.|x)}[ln f_mu(Y)] for inputs of variances cxs, isotropic only, one
        node-count group formed and reduced at a time. Rows reduce by np.add.reduce,
        not BLAS, so a value is the same in any batch."""
        cxs = np.asarray(cxs, dtype=float)
        counts = self.table.node_counts(cxs * self.tail_s)
        lnf, out = self.table.mixture(np.asarray(weights, dtype=float)), np.empty(cxs.size)
        for rows, q, n in self.radial_weights(cxs, counts):
            out[rows] = np.add.reduce(np.multiply(q, lnf[:n], out=q), axis=1)
        return out

    def stream_stats(self, xs, weights, cfg: McConfig, stream: int, factors=None):
        """Means and SEs, two (P,) arrays, of ln f_mu(Y) over Y ~ p(.|x) for the P
        rows x of xs, all on one stream's draws, accumulated batch-wise.

        Isotropic channels sample the normalized squared radius directly,
        stratified over equiprobable shells, one row at a time at its variance
        c_x = noise_var + iso_var x^H x. The stratum of stream position p is
        p % n, so the stratum counts follow from cfg, and batch b, which starts
        at stratum r = (b batch) % n, writes its mixture at offset r of one
        zero-padded buffer of whole rows of n: an axis-0 np.add.reduce of its
        (rows, n) view adds each stratum's samples in stream order, as bincount
        over stored ids did, and the padding adds +0.0. Dense channels take
        every row in one pass over the draws, with coefficients from one
        batched product of the rows' (P, M, M) factors L_x (one
        _conditional_covariances call when factors is None). Each batch's log
        densities fill one (k, n) buffer, log_norm subtracted and the mixture
        taken in place (_weighted_mix with out). Each row keeps its own sums, so
        a value does not depend on which rows share the call.
        """
        weights, draws = np.asarray(weights, dtype=float), self._draws(cfg, stream)
        if self.iso:  # the mean averages the equiprobable strata's
            n, batch = _n_strata(cfg), cfg.effective_batch
            means, ses = np.empty(len(xs)), np.empty(len(xs))
            count = np.full(n, float(cfg.samples // n))  # stream position p is in stratum p % n
            count[:cfg.samples % n] += 1.0
            buf = np.empty(-(-(n - 1 + batch) // n) * n)  # batch b from offset (b batch) % n
            strata_rows = buf.reshape(-1, n)
            for row, x in enumerate(xs):
                cx = self.model.noise_var + self.model.iso_var * float(np.real(np.vdot(x, x)))
                ratios, s1, s2 = cx / self.scalar_var, np.zeros(n), np.zeros(n)
                for b, s in enumerate(draws):
                    r = b * batch % n
                    buf[:r], buf[r + s.size:] = 0.0, 0.0  # padding adds +0.0 to a stratum
                    logp = np.multiply.outer(-ratios, s)  # the batch's one (k, n) buffer
                    logp -= self.log_norm[:, None]
                    mix = _weighted_mix(logp, weights, out=buf[r:r + s.size])
                    s1 += np.add.reduce(strata_rows, axis=0)  # adds the rows in order
                    np.square(mix, out=mix)
                    s2 += np.add.reduce(strata_rows, axis=0)
                strata, var = _sample_moments(s1, s2, count)
                means[row], ses[row] = np.sum(strata) / n, math.sqrt(float(np.sum(var)) / (n * n))
            return means, ses
        if factors is None:
            factors = _conditional_covariances(self.model, xs)[1]
        coefs = self._form_coefficients(factors)
        s1, s2, count = np.zeros(len(xs)), np.zeros(len(xs)), 0
        for monomials in draws:
            n = monomials.shape[1]
            logp, mix = np.empty((self.log_norm.size, n)), np.empty(n)
            for row, coef in enumerate(coefs):
                _weighted_mix(self._log_densities(coef, monomials, out=logp), weights, out=mix)
                s1[row] += mix.sum()
                s2[row] += mix @ mix
            count += n
        means, var = _sample_moments(s1, s2, count)
        return means, np.sqrt(var)


def _stream_indices(atoms: np.ndarray, xs: np.ndarray) -> list[int]:
    """Sample stream of each row of xs: the index of the first atom it equals,
    else the cross stream."""
    match = np.all(xs[:, None] == atoms[None], axis=2)
    return np.where(match.any(axis=1), match.argmax(axis=1), _CROSS_STREAM).tolist()


def cross_term(model: ChannelModel, mu: DiscreteMeasure, x, cfg: McConfig) -> McEstimate:
    """Estimate E_{y ~ p(.|x)}[ln f_mu(y)], in nats.

    When x coincides with an atom of mu, the sample stream matches the one
    mutual_information uses for that atom, so the two estimators decompose
    consistently.
    """
    xs = _as_input(model, x)[None]
    _finite_norms_sq(xs, model)
    mean, se = _ConditionalLaws(model, mu.atoms).stream_stats(
        xs, mu.weights, cfg, _stream_indices(mu.atoms, xs)[0])
    return McEstimate(float(mean[0]), float(se[0]), cfg.samples, cfg.seed)


def mutual_information(model: ChannelModel, mu: DiscreteMeasure, cfg: McConfig) -> McEstimate:
    """Estimate I(mu; W) = sum_i w_i E_{y~p(.|x_i)}[ln p(y|x_i) - ln f_mu(y)].

    Stratified sampler with cfg.samples draws per atom; the estimate is
    nonnegative up to Monte Carlo error (about -3 standard errors). The
    conditional-entropy term is exact, so only the mixture cross terms carry
    Monte Carlo error.
    """
    laws = _ConditionalLaws(model, mu.atoms)
    neg_h = np.array([-conditional_entropy(model, x) for x in mu.atoms])
    stats = [laws.stream_stats(mu.atoms[i:i + 1], mu.weights, cfg, i,
                               None if laws.iso else laws.factors[i:i + 1])
             for i in range(mu.n_atoms)]
    cross, cross_se = (np.concatenate(v) for v in zip(*stats))
    value = _information(mu.weights, neg_h, cross)
    se = float(np.sqrt(np.dot(mu.weights ** 2, cross_se ** 2)))
    return McEstimate(value, se, cfg.samples * mu.n_atoms, cfg.seed)


def _information(weights, neg_h, cross) -> float:
    """I(mu; W) = sum_i w_i (-h(Y|x_i) - E_i[ln f_mu]): the formula every path shares."""
    return float(np.dot(weights, neg_h) - np.dot(weights, cross))


def _mutual_information(model: ChannelModel, mu: DiscreteMeasure, cfg: McConfig) -> McEstimate:
    """I(mu; W) for the Fano report and Optimum: exact on isotropic channels (std_error 0,
    samples 0, bit for bit _SupportEvaluator.mutual_information), else mutual_information.
    The public estimators keep the Monte Carlo while the benchmark self-test pins it."""
    if model.iso_var is None:
        return mutual_information(model, mu, cfg)
    laws = _ConditionalLaws(model, mu.atoms)
    cross = laws.cross_quadratures(laws.scalar_var, mu.weights)
    return McEstimate(_information(mu.weights, laws.neg_entropies(), cross), 0.0, 0, cfg.seed)


def _shell_probabilities(model: ChannelModel, dirs: np.ndarray, log_norms: np.ndarray,
                         log_rho: np.ndarray, cfg: McConfig) -> list[McEstimate]:
    """shell_probability for the K inputs x_i = ||x_i|| u_i, each against its own shell.

    dirs holds the unit directions u_i (K, N), log_norms ln ||x_i|| (-inf at
    the origin) and log_rho the rows (ln rho1, ln rho2), so no scale has to
    fit in a double. C(x) = noise_var I + ||x||^2 D(u) with D(u) = (I kron
    u^H) Sigma (I kron u); it is the scalar matrix c I, c = noise_var +
    ||x||^2 d with d the mean of D(u)'s diagonal, when ||x||^2 max|D(u) - d I|
    <= 2^-50 c. That test and the mass are taken in logs: ||y||^2 / c is
    Gamma(M, 1), so the mass is the difference of two gamma tails: lower
    tails P if t2 <= M - 1, else upper tails Q, the small ones away from the
    mode. Otherwise C(x) has eigenvalues ||x||^2 (d_m + noise_var / ||x||^2),
    d_m those of D(u) (one batched eigvalsh), and the mass is a difference of
    _hypoexp_tail values on one side of the mean, the smaller dropped when
    bounded by 2^-60 of the larger. No ratio comes from logs of size ln ||x||.
    """
    m = model.M
    d = np.einsum("kn,mnpq,kq->kmp", dirs.conj(), model._sigma4, dirs)
    d_mean = np.mean(np.diagonal(d, axis1=1, axis2=2).real, axis=1)
    spread = np.max(np.abs(d - d_mean[:, None, None] * np.eye(m)), axis=(1, 2))
    with np.errstate(divide="ignore", over="ignore"):
        log_c = np.logaddexp(math.log(model.noise_var), np.log(d_mean) + 2.0 * log_norms)
        scalar = np.log(spread) + 2.0 * log_norms <= math.log(2.0 ** -50) + log_c
        mus = np.linalg.eigvalsh(d) + np.exp(math.log(model.noise_var) - 2.0 * log_norms)[:, None]
    out = []
    for is_scalar, lc, lr, log_x, mu in zip(scalar, log_c, log_rho, log_norms, mus):
        if is_scalar:
            t1, t2 = (math.exp(v) if v <= 709.0 else math.inf for v in 2.0 * lr - lc)
            upper_tails = t2 > m - 1
            q1, q2 = (math.exp(_log_gamma_tail(m, t, upper_tails)) for t in (t1, t2))
            mass = q1 - q2 if upper_tails else q2 - q1
        else:
            tau1, tau2 = (math.exp(v) if v <= 709.0 else math.inf
                          for v in 2.0 * (lr - log_x) - math.log(mu[0]))
            upper_tails = tau2 > float(np.sum(mu / mu[0]))
            a, b = (tau1, tau2) if upper_tails else (tau2, tau1)
            qa = _hypoexp_tail(mu, a, upper_tails)
            mass = qa - _hypoexp_tail(mu, b, upper_tails, 2.0 ** -60 * qa)
        out.append(McEstimate(mass, 0.0, 0, cfg.seed))
    return out


def shell_probability(model: ChannelModel, x, shell: OutputShell, cfg: McConfig) -> McEstimate:
    """Probability that ||y|| lands in [rho1, rho2) under y ~ p(.|x).

    Exact, with std_error 0 and samples 0, on every channel: gamma tails when
    C(x) is a scalar matrix (isotropic channels, M == 1, or any channel along
    a direction u with D(u) scalar), hypoexponential tails in the eigenvalues
    of C(x) otherwise. It is the one-input case of _shell_probabilities.
    """
    u, log_norm = _polar(_as_input(model, x))
    with np.errstate(divide="ignore"):
        return _shell_probabilities(model, u[None], np.array([log_norm]),
                                    np.log([[shell.rho1, shell.rho2]]), cfg)[0]


def _polar(x: np.ndarray) -> tuple[np.ndarray, float]:
    """(u, ln ||x||) with x = ||x|| u, u = e0 at the origin. The norm is taken of x /
    max|x_i|, so no square leaves double range at any finite x."""
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return np.eye(x.size, dtype=complex)[0], -math.inf
    u = x / scale
    norm = float(np.linalg.norm(u))
    return u / norm, math.log(scale) + math.log(norm)
