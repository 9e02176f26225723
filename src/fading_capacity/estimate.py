"""Integrals over the output space: seeded Monte Carlo and radial quadrature.

All stochastic results are McEstimate values (point estimate, standard error,
sample count, seed), bit-reproducible for a fixed McConfig (samples, seed):
streams are seeded counter-style by (seed, stream index, batch index) and
reduced in a fixed order. A batch is a fixed 50,000 draws (_BATCH), part of a
stream's identity: another size would draw other streams. Mutual information
samples each atom's law on its own stream: the shell-decoder constructions'
mixture components are hundreds of orders of magnitude apart, and sampling
the mixture would never visit the small ones. Radially symmetric laws also
stratify the output radius over equiprobable shells, which tames the
cross-term variance far outside the support; the squared radius is the
closed-form integer-order Gamma(M) quantile (_gamma_quantile), each half
solved on its own tail's finite sum.

One sample path serves every Monte Carlo caller. A stream's draws depend on
(M, cfg, stream index) alone, so _stream_draws shares them across the process
within a byte budget: per batch, the normalized squared radii on isotropic
channels (a sample's stratum is its position modulo the stratum count), else
the M^2 second-order monomials of w ~ CN(0, I_M), y = L_x w. Every dense
integrand (ln p(y|x_j), ln f_mu(y)) is a function of quadratic forms in w, so
it reads w only through w w^H, and w's global phase carries nothing. A dense
stream holds the monomials of (sqrt(E), v_1, ..., v_(M-1)), E ~ Exp(1) and
v_q ~ CN(0, 1) independent: that vector has the law of e^(-i arg w_0) w,
whose outer product is w w^H itself, so the streams are exact, at one
exponential and 2(M - 1) normals per sample, not 2M normals
(_phase_free_monomials). channel.sample_output, whose y must itself be
circular, keeps complex normals. _ConditionalLaws is the package's one
integrator; kkt, the optimizer and the Fano report reach the output space only
through it. stream_stats reduces a stream to means and SEs for a stack of
inputs in one batch loop: a batch's monomials times each atom's coefficients
(one column, -c_x / c_j, on isotropic channels), the Gaussian exponents, in one
(k, n) buffer, the mixture taken in place by measure._weighted_mix (exponents
recomputed for the columns it redoes), sums kept per input and per stratum (one
on dense channels), so a value is the same alone or in a scan.
cross_terms integrates ln f_mu against each input's law: on isotropic
channels, where ln f_mu depends on ||y||^2 alone, by radial quadrature on the
support's one _RadialTable (plain panels, 5 ceil(sqrt(M) / 3) to an octave,
that no weight vector changes), inputs grouped by the node count their
Gamma(M, c_x) law needs. An (input, node) element costs one outer product,
-u / c_x (above M = 1 two adds bring in (M - 1) ln u and the normalizer), one
exp, one multiply by the column du ln f_mu, formed once per call, and one
np.add.reduce; each row's sum is then divided by c_x (radial_kernels,
cross_quadratures), so a value is the same in any batch. posteriors adds the
atoms' mean posteriors for the weight solve, its cross terms associated the
same way. On dense channels cross_terms takes one stream_stats call per
stream, atoms descending, then the cross stream, so the atom streams that
mutual_information (ascending) left in the draw cache are used before a miss
evicts them. The public estimators stay Monte Carlo on every channel, the
quadrature's independent cross-check. Shell probabilities
(_shell_probabilities) take inputs and radii in logs and are exact at any
scale on every channel: gamma tails when C(x) is a scalar matrix, else
hypoexponential tails in the eigenvalues of C(x) (_hypoexp_tail).

The integer-order gamma and the hypoexponential tails (chi_square_tail,
log_chi_square_tail, all shell masses) are sums of positive Poisson terms
(_poisson_terms). They, the isotropic quadrature and its tail quantile
(_tail_quantile) run on numpy and closed forms, as does the whole package:
numpy is its only dependency.

Every command is one process, so its peak resident set is part of its cost:
the Gauss-Legendre rule is written out as constants, so no process loads
numpy.polynomial (9 modules, 0.6-1.0 MB of peak), and a draw-cache miss
evicts before it draws (_stream_draws).
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .channel import (_U64, LOG_PI_E, ChannelModel, _as_input, _check_positive_int,
                      _check_seed, _conditional_covariances,
                      _is_int, conditional_entropy)
from .errors import NotConvergedError, ScaleOverflowError
from .measure import DiscreteMeasure, _mix_bias, _weighted_mix

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
_BATCH = 50_000  # draws per batch: part of a stream's identity (see the module docstring)
# Largest exponent allowed for a plain-domain scale (double overflows at ~709.8).
_LOG_CAP = 700.0

# Stream tag outside the per-atom index range.
_CROSS_STREAM = 1 << 20
# Bytes of stream draws kept per process (_stream_draws): three M = 2 streams of 20k samples.
_DRAW_BUDGET = 2 << 20
_DRAWS: OrderedDict = OrderedDict()  # (M, iso, cfg, stream) -> (draws, bytes), oldest use first
_DRAWS_LOCK = threading.Lock()


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit stream seed from a base seed in [0, 2^64) (ValueError
    outside it) and an index path."""
    entropy = [_check_seed(seed)] + [int(p) & _U64 for p in path]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for one estimator call: (samples, seed) names every stream.

    samples counts draws per stream (per atom for mutual information), drawn in
    batches of _BATCH; isotropic streams split them over up to 64 radial strata,
    dense streams have one. seed is in [0, 2^64), so no two seeds name the same
    streams. Exact shell masses and quadratures use neither.
    """

    samples: int
    seed: int

    def __post_init__(self):
        if not (_is_int(self.samples) and self.samples >= 100):
            raise ValueError(f"samples must be an integer >= 100, got {self.samples!r}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo result: value, standard error, total draws, base seed. Exact
    results (closed forms, radial quadratures) carry std_error 0 and samples 0."""

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
    isotropic channels if, for c = noise_var + iso_var ||x||^2, the tail edge c s_tail
    (_tail_quantile; s_tail > pi, so pi c is finite too), the octave edge up to twice
    it that covers it, or its ratio to noise_var is not."""
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
    """Normalized squared radii s = ||y||^2 / c ~ Gamma(m, 1) for y ~ CN(0, c I_m),
    stratified over n_strata equiprobable radial shells: s = _gamma_quantile of q =
    (id + u) / n_strata (1 - q as (n_strata - id - u) / n_strata), the stratum id of
    stream position p being p % n_strata, so no id is returned or stored."""
    u = np.random.default_rng(seed_key).random(nb)
    ids = (offset + np.arange(nb)) % n_strata
    return _gamma_quantile(m, (ids + u) / n_strata, (n_strata - ids - u) / n_strata)


def _n_strata(cfg: McConfig) -> int:
    """Radial strata of isotropic streams: at least 8 draws each, at most 64."""
    return max(1, min(64, cfg.samples // 8))


def _evict(room: int) -> None:
    """Evict least recently used streams until room more bytes fit (caller holds the lock)."""
    retained = sum(nbytes for _, nbytes in _DRAWS.values())
    while retained + room > _DRAW_BUDGET:
        retained -= _DRAWS.popitem(last=False)[1][1]


def _stream_draws(m: int, iso: bool, cfg: McConfig, stream: int) -> list:
    """Per-batch draws of one stream, seeded by (seed, stream, batch), each one
    read-only float64 array: the (n,) _stratified_radii_sq on isotropic channels,
    else the (M^2, n) _phase_free_monomials. Every caller in the process shares
    them, least recently used evicted first, within _DRAW_BUDGET bytes; a larger
    stream is returned unkept, and evicts nothing. A kept miss knows its bytes in
    advance and evicts before it draws, so the cache peaks at the budget plus the
    stream being drawn. Two callers that miss on one key at once both draw it, get
    equal arrays, and evict again.
    """
    key, batch = (m, iso, cfg, stream), min(cfg.samples, _BATCH)
    size = cfg.samples * 8 * (1 if iso else m * m)
    keep = size <= _DRAW_BUDGET
    with _DRAWS_LOCK:
        if key in _DRAWS:
            _DRAWS.move_to_end(key)
            return _DRAWS[key][0]
        if keep:
            _evict(size)
    draws = []
    for b, start in enumerate(range(0, cfg.samples, batch)):
        seed_key, nb = derive_seed(cfg.seed, stream, b), min(batch, cfg.samples - start)
        if iso:  # strata continue from the batches before
            draw = _stratified_radii_sq(seed_key, start, nb, m, _n_strata(cfg))
        else:
            draw = _phase_free_monomials(seed_key, nb, m)
        draw.flags.writeable = False
        draws.append(draw)
    if keep:
        with _DRAWS_LOCK:
            _DRAWS[key] = draws, size
            _evict(0)
    return draws


def _sample_moments(s1, s2, count):
    """Per entry, the mean and its variance from the sums s1 and s2 of count values
    and of their squares."""
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


def _phase_free_monomials(seed_key: int, count: int, m: int) -> np.ndarray:
    """(M^2, count) second-order monomials of w ~ CN(0, I_M) with its global phase
    removed: w_0 = sqrt(E), E ~ Exp(1), and w_q = v_q ~ CN(0, 1) for q >= 1. Rows as
    _norm_coefficients reads them: |w_p|^2 (row 0 is E), then Re and Im of conj(w_p)
    w_q for p < q, in real arithmetic from the standard normals a_q, b_q = sqrt 2 (Re,
    Im) v_q, drawn after E into their p = 0 rows: |v_q|^2 = (a_q^2 + b_q^2) / 2, the
    p = 0 rows sqrt(E / 2) (a_q, b_q), the others (a_p a_q + b_p b_q, a_p b_q - b_p a_q)
    / 2. One exponential and 2(M - 1) normals per sample, not 2M normals."""
    rng, out = np.random.default_rng(seed_key), np.empty((m * m, count))
    rng.standard_exponential(out=out[0])
    if m > 1:
        pairs = m * (m - 1) // 2
        a, b = out[m:2 * m - 1], out[m + pairs:m + pairs + m - 1]
        rng.standard_normal(out=a)
        rng.standard_normal(out=b)
        np.square(a, out=out[1:m])
        out[1:m] += np.square(b)
        p, q = np.triu_indices(m - 1, 1)  # the pairs 1 <= p < q, in the same order
        re, im = out[2 * m - 1:m + pairs], out[m + pairs + m - 1:]
        np.multiply(a[p], a[q], out=re)
        re += b[p] * b[q]
        np.multiply(a[p], b[q], out=im)
        im -= b[p] * a[q]
        for rows in (out[1:m], re, im):  # halving is exact
            rows *= 0.5
        scale = np.sqrt(out[0] * 0.5)
        a *= scale
        b *= scale
    return out


def _norm_coefficients(a: np.ndarray, upper) -> np.ndarray:
    """(..., M^2) rows c with c @ d = ||A w||^2 for a (..., M, M), any leading axes,
    and the monomial rows d of w (_phase_free_monomials): with G = A^H A, the
    diagonal of G, then 2 Re G_pq and -2 Im G_pq for p < q."""
    g = np.conj(np.swapaxes(a, -1, -2)) @ a
    off = g[..., upper[0], upper[1]]
    return np.concatenate((np.diagonal(g, axis1=-2, axis2=-1).real,
                           2.0 * off.real, -2.0 * off.imag), axis=-1)


class _RadialTable:
    """Composite Gauss-Legendre nodes in u = ||y||^2, and every atom's exponent -u / c_j there.

    Panels cut the octaves [c0 2^(j-1), c0 2^j] up from the noise variance c0
    (octave 0 is [0, c0]) into _OCTAVE_PARTS ceil(sqrt(M) / 3) equal parts,
    narrower than the Gamma(M) peak at any order; no node depends on the weights,
    and none on which inputs came before. An input needs the nodes up to the
    first octave that holds its law's tail (node_counts). The table holds the
    laws' arrays, not the laws: a reference back would make a cycle.
    """

    def __init__(self, laws: "_ConditionalLaws"):
        self.inv_var, self.noise_var = laws.inv_var, laws.model.noise_var
        parts = _OCTAVE_PARTS * math.ceil(math.sqrt(laws.model.M) / 3.0)
        self.fractions = np.arange(parts + 1) / parts  # panel edges, in octave widths
        self.per_octave = _GL_NODES.size * parts
        self.tops: list[float] = []  # each octave's upper edge in u
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
        exponents = np.multiply.outer(-self.inv_var, u)
        if self.tops:
            u, du = np.concatenate((self.u, u)), np.concatenate((self.du, du))
            exponents = np.concatenate((self.exponents, exponents), axis=1)
        self.tops += hi.tolist()
        self.u, self.du, self.exponents = u, du, exponents

    def node_counts(self, u_max: np.ndarray) -> np.ndarray:
        """Node counts of the octaves that cover [0, u_max], tabulating new ones."""
        while self.tops[-1] < u_max.max():
            self._tabulate(len(self.tops))
        return (np.searchsorted(self.tops, u_max) + 1) * self.per_octave

    def mixture(self, bias: np.ndarray) -> np.ndarray:
        """ln f_mu at every node, for the bias _mix_bias(weights, log_norm): one
        _weighted_mix, whose sums do not depend on the table's width."""
        return _weighted_mix(self.exponents, bias)


class _ConditionalLaws:
    """Pre-factored conditional output laws p(.|x_j) for a fixed atom list: the
    package's one integrator (stream_stats, cross_terms, posteriors).

    Isotropic laws keep the atoms' variances c_j, dense ones their Cholesky
    factors L_j and inverses; log_norm is ln det(pi C_j) on both. The radial
    quadrature runs on the atoms' one _RadialTable (table). An atom whose squared
    norm or variance is not a finite double raises ScaleOverflowError.
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
        self._streams = None, []  # posteriors' cfg and its atom streams

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

    def _log_densities(self, coef: np.ndarray, draw: np.ndarray, out=None) -> np.ndarray:
        """(k, n) Gaussian exponents e_j = coef @ draw = -y^H C_j^-1 y, ln p(y|x_j) less
        its normalizer log_norm[j], at one batch's outputs, written to out if given. One
        coefficient column (isotropic radii, or M = 1) takes a broadcast product: the
        same bits as the (k, 1) @ (1, n) matmul, several times faster."""
        return (np.multiply if coef.shape[-1] == 1 else np.matmul)(coef, draw, out=out)

    @functools.cached_property
    def table(self) -> _RadialTable:
        """The support's one _RadialTable, isotropic only: built on first use, then kept."""
        return _RadialTable(self)

    @functools.cached_property
    def atom_groups(self) -> list:
        """(rows, k, q, n) per node count at the atoms, isotropic only: the
        radial_kernels group (rows, k, n), k in its own array, and q = k du / c_x,
        the posterior products' quadrature weights. Formed on first use, then kept."""
        counts, du = self.table.node_counts(self.scalar_var * self.tail_s), self.table.du
        return [(rows, k.copy(), k * du[:n] / self.scalar_var[rows, None], n)
                for rows, k, n in self.radial_kernels(self.scalar_var, counts)]

    def radial_kernels(self, cxs: np.ndarray, counts: np.ndarray):
        """Groups (rows, k, n), isotropic only: the inputs of variances cxs that need n
        nodes (counts: table.node_counts), and k = c_x times their Gamma(M, c_x) density
        at u = table.u[:n], so E[g(||Y||^2)] ~ (k @ (du g(u))) / c_x. k = exp(E), E =
        -u / c_x (one outer product) plus, above M = 1, (M - 1) ln(u / c_x) - ln (M - 1)!:
        the normalizer stays inside the exponent, where c_x^(M-1) and (M - 1)! cannot
        leave double range. A generator: each group is formed when taken, in one scratch
        buffer that every group of the call shares, the caller's until it takes the next.
        """
        m, u, order = self.model.M, self.table.u, np.argsort(counts, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(counts[order])) + 1)
        buf = np.empty(max(rows.size * int(counts[rows[0]]) for rows in groups))
        slopes = -1.0 / cxs
        if m > 1:
            log_u = (m - 1) * np.log(u[:int(counts.max())])
            norms = (m - 1) * np.log(cxs) + math.lgamma(m)
        for rows in groups:
            n = int(counts[rows[0]])
            e = np.multiply.outer(slopes[rows], u[:n], out=buf[:rows.size * n].reshape(-1, n))
            if m > 1:
                e += log_u[:n]
                e -= norms[rows, None]
            yield rows, np.exp(e, out=e), n

    def _mixture_column(self, lnf: np.ndarray, n: int) -> tuple[np.ndarray, int]:
        """(du ln f_mu 2^-s, s) at the first n nodes, s > 0 only where du ln f_mu or a
        row's sum of it could leave double range (c_x near 1e306): du < u[n - 1], and ln
        f_mu decreases in u, so its ends bound it. Scaling by a power of two is exact,
        so no value depends on s."""
        big = max(abs(lnf[0]), abs(lnf[n - 1]))
        s = max(0, math.frexp(self.table.u[n - 1])[1] + math.frexp(big)[1] - 1000)
        du = self.table.du[:n]
        return (np.ldexp(du, -s) if s else du) * lnf[:n], s

    def cross_quadratures(self, cxs, weights) -> np.ndarray:
        """E_{Y~p(.|x)}[ln f_mu(Y)] for inputs of variances cxs, isotropic only: per input
        one radial_kernels row times the column du ln f_mu (_mixture_column, formed once
        per call), summed by np.add.reduce, not BLAS, so a value is the same in any
        batch, then divided by c_x."""
        cxs = np.asarray(cxs, dtype=float)
        counts = self.table.node_counts(cxs * self.tail_s)
        lnf = self.table.mixture(_mix_bias(weights, self.log_norm))
        col, s = self._mixture_column(lnf, int(counts.max()))
        out = np.empty(cxs.size)
        for rows, k, n in self.radial_kernels(cxs, counts):
            out[rows] = np.add.reduce(np.multiply(k, col[:n], out=k), axis=1)
        return np.ldexp(out / cxs, s)

    def stream_stats(self, xs, weights, cfg: McConfig, stream: int, factors=None):
        """Means and SEs, two (P,) arrays, of ln f_mu(Y) over Y ~ p(.|x) for the P
        rows x of xs, all on one stream's draws, in one loop over its batches.

        A row's coefficients are -c_x / c_j, c_x = noise_var + iso_var x^H x, on
        isotropic channels, else from one batched product of the rows' factors L_x
        (_conditional_covariances when factors is None). The mixture goes into a
        zero-padded buffer of whole rows of n strata (n = 1 on dense channels):
        position p is in stratum p % n, so batch b writes at offset (b batch) % n,
        and an axis-0 np.add.reduce of the (rows, n) view adds each stratum in
        stream order (pairwise when n = 1). The mean averages the strata's.
        """
        bias, draws = _mix_bias(weights, self.log_norm), self._draws(cfg, stream)
        if self.iso:
            cxs = self.model.noise_var + self.model.iso_var * np.array(
                [np.vdot(x, x).real for x in xs])
            coefs = -(cxs[:, None] / self.scalar_var)[..., None]
        else:
            coefs = self._form_coefficients(
                _conditional_covariances(self.model, xs)[1] if factors is None else factors)
        n, batch = _n_strata(cfg) if self.iso else 1, min(cfg.samples, _BATCH)
        count = np.full(n, float(cfg.samples // n))
        count[:cfg.samples % n] += 1.0
        buf = np.empty(-(-(n - 1 + batch) // n) * n)
        s1, s2 = np.zeros((2, len(coefs), n))
        for b, draw in enumerate(draws):
            r, size = b * batch % n, draw.shape[-1]
            strata = buf[:-(-(r + size) // n) * n].reshape(-1, n)
            buf[:r], buf[r + size:strata.size] = 0.0, 0.0
            e = np.empty((bias.size, size))
            for row, coef in enumerate(coefs):
                mix = _weighted_mix(self._log_densities(coef, draw, out=e), bias,
                                    out=buf[r:r + size],
                                    fresh=lambda cols: self._log_densities(coef, draw)[:, cols])
                s1[row] += np.add.reduce(strata, axis=0)
                np.square(mix, out=mix)
                s2[row] += np.add.reduce(strata, axis=0)
        means, var = _sample_moments(s1, s2, count)
        return np.sum(means, axis=1) / n, np.sqrt(np.sum(var, axis=1) / (n * n))

    def cross_terms(self, weights, cfg: McConfig, xs=None):
        """(E[ln f_mu(Y)], its SE, ln det C(x), ||x||^2), four (P,) arrays, for Y ~
        p(.|x) at the P rows x of xs, the atoms when xs is None. Radial quadrature
        on isotropic channels (SE 0); Monte Carlo on dense ones, each row on the
        stream of the first atom it equals, else the cross stream, one stream_stats
        call per stream: atoms descending, then the cross stream. A squared norm or
        variance that is not a finite double raises ScaleOverflowError."""
        weights, model = np.asarray(weights, dtype=float), self.model
        norms_sq = self.norms_sq if xs is None else _finite_norms_sq(xs, model)
        xs = self.atoms if xs is None else xs
        if self.iso:
            cxs = model.noise_var + model.iso_var * norms_sq
            return (self.cross_quadratures(cxs, weights), np.zeros(len(xs)),
                    model.M * np.log(cxs), norms_sq)
        _, factors, log_det = _conditional_covariances(model, xs)
        streams = _stream_indices(self.atoms, xs)
        cross, ses = np.empty(len(xs)), np.empty(len(xs))
        # sorted, not np.unique: np.unique loads numpy.ma
        for stream in sorted(set(streams.tolist()), key=lambda s: (s == _CROSS_STREAM, -s)):
            rows = np.flatnonzero(streams == stream)
            cross[rows], ses[rows] = self.stream_stats(xs[rows], weights, cfg, stream,
                                                       factors[rows])
        return cross, ses, log_det, norms_sq

    def posteriors(self, weights, cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
        """(cross_terms at the atoms, P) with P[i, j] = w_j E_i[p_j / f_mu], atom j's
        mean posterior under atom i's law. It keeps what no weight vector changes, the
        atom_groups or on dense channels the k atom streams of cfg (the draw cache holds
        few of a search's size): a weight solve calls it hundreds of times. Isotropic
        cross terms equal cross_quadratures' bit for bit: the same association, on the
        kept kernels."""
        bias, k = _mix_bias(weights, self.log_norm), self.log_norm.size
        cross, post = np.zeros(k), np.zeros((k, k))
        if self.iso:  # one (atoms x nodes) @ (nodes x atoms) product per node count
            table, lnf = self.table, self.table.mixture(bias)
            col, s = self._mixture_column(lnf, self.atom_groups[-1][3])
            for rows, k, q, n in self.atom_groups:
                e = table.exponents[:, :n] + bias[:, None]  # the posterior exponent, in one buffer
                post[rows] = q @ np.exp(np.subtract(e, lnf[:n], out=e), out=e).T
                cross[rows] = np.add.reduce(k * col[:n], axis=1)  # k is kept: not in place
            return np.ldexp(cross / self.scalar_var, s), post
        if self._streams[0] != cfg:
            self._streams = cfg, [self._draws(cfg, i) for i in range(k)]
        coefs = self._form_coefficients(self.factors)
        for batch in zip(*self._streams[1]):  # batch b of every atom's stream
            e = np.empty((k, batch[0].shape[1]))  # the batch's one (k, n) buffer
            for i, (coef, monomials) in enumerate(zip(coefs, batch)):
                mix = _weighted_mix(self._log_densities(coef, monomials, out=e), bias)
                cross[i] += mix.sum()
                e += bias[:, None]  # the posterior exponent, in place
                e -= mix
                post[i] += np.exp(e, out=e).sum(axis=1)
        return cross / cfg.samples, post / cfg.samples


def _stream_indices(atoms: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample stream of each row of xs: the first atom it equals, else the cross stream."""
    match = np.all(xs[:, None] == atoms[None], axis=2)
    return np.where(match.any(axis=1), match.argmax(axis=1), _CROSS_STREAM)


def cross_term(model: ChannelModel, mu: DiscreteMeasure, x, cfg: McConfig) -> McEstimate:
    """Estimate E_{y ~ p(.|x)}[ln f_mu(y)], in nats. At an atom of mu it takes the
    atom's stream, as mutual_information does, so the two decompose consistently."""
    xs = _as_input(model, x)[None]
    _finite_norms_sq(xs, model)
    mean, se = _ConditionalLaws(model, mu.atoms).stream_stats(
        xs, mu.weights, cfg, int(_stream_indices(mu.atoms, xs)[0]))
    return McEstimate(float(mean[0]), float(se[0]), cfg.samples, cfg.seed)


def mutual_information(model: ChannelModel, mu: DiscreteMeasure, cfg: McConfig) -> McEstimate:
    """Estimate I(mu; W) = sum_i w_i E_{y~p(.|x_i)}[ln p(y|x_i) - ln f_mu(y)].

    Stratified sampler with cfg.samples draws per atom, nonnegative up to Monte
    Carlo error (about -3 SE); only the cross terms carry it, the entropies are exact.
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
    """I(mu; W) from _ConditionalLaws.cross_terms at the atoms, for the Fano report, Optimum
    and the CLI: exact on isotropic channels (std_error 0, samples 0, bit for bit
    _SupportEvaluator.mutual_information), else bit for bit mutual_information. The public
    estimators keep the Monte Carlo while the benchmark self-test pins it."""
    laws = _ConditionalLaws(model, mu.atoms)
    cross, ses, _, _ = laws.cross_terms(mu.weights, cfg)
    se = float(np.sqrt(np.dot(mu.weights ** 2, ses ** 2)))
    return McEstimate(_information(mu.weights, laws.neg_entropies(), cross), se,
                      0 if laws.iso else cfg.samples * mu.n_atoms, cfg.seed)


def _shell_probabilities(model: ChannelModel, dirs: np.ndarray, log_norms: np.ndarray,
                         log_rho: np.ndarray, cfg: McConfig) -> list[McEstimate]:
    """shell_probability for the K inputs x_i = ||x_i|| u_i, each against its own shell.

    dirs holds the unit directions u_i (K, N), log_norms ln ||x_i|| (-inf at the
    origin) and log_rho the rows (ln rho1, ln rho2), so no scale has to fit in a
    double. C(x) = noise_var I + ||x||^2 D(u), D(u) = (I kron u^H) Sigma (I kron u),
    is taken as c I, c = noise_var + ||x||^2 mean(diag D(u)), when ||x||^2 max|D(u) -
    d I| <= 2^-50 c (tested in logs); the mass is then a difference of gamma tails
    of ||y||^2 / c ~ Gamma(M, 1), lower tails P if t2 <= M - 1, else upper tails Q.
    Otherwise it is a difference of _hypoexp_tail values in the eigenvalues ||x||^2
    (d_m + noise_var / ||x||^2) on one side of the mean, the smaller dropped when
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
