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
dense channels: a _ConditionalLaws object draws each stream (keeping the
last one's draws), forms component-major (atoms x samples) log densities and
reduces them with the mixture kernel _weighted_mix, so all callers agree bit
for bit. On dense channels y = L_x w with w standard normal, so log
densities and ||y||^2 are quadratic forms in w: one small matmul of their
coefficients with each batch's cached monomials of w. On isotropic channels
kkt_scan, the optimizer and the Fano report's I(mu) integrate ln f_mu, a
function of ||y||^2 alone, by radial quadrature (_RadialTable); the public
estimators stay Monte Carlo, its independent cross-check. It is batched
(_ConditionalLaws.cross_quadratures): all inputs of a scan or a support are
grouped by the node count their Gamma(M, c_x) law needs, each group is one
array pass, and each row reduces on its own, so no value depends on the batch.
Shell probabilities (_shell_probabilities) take inputs and radii in logs: when
C(x) is a scalar matrix the mass is exact at any scale, from log-domain gamma
tails; the other inputs share one draw of the shell stream.

scipy.special.gammaincc is imported on first use, by chi_square_tail and by
log_chi_square_tail at m > 1 (scalar-law shell masses with M > 1). Every
other path, the isotropic quadrature with its tail quantile (_tail_quantile)
included, runs on numpy and closed forms, so it never loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (_U64, ChannelModel, _as_input, _complex_standard_normals,
                      _conditional_covariances, conditional_covariance,
                      conditional_entropy)
from .errors import NotConvergedError, ScaleOverflowError
from .measure import DiscreteMeasure

_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10  # fdlibm: n * hi exact, |n| < 2^21

# Radial quadrature: Gauss-Legendre rule per panel, the Gamma(M) tail mass
# left beyond the last octave, and the panel edges around a crossover of two
# mixture lines, in transition widths.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_TAIL_MASS = 1e-18
_CROSSOVER_GRADING = np.array([-64.0, -16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0, 64.0])
_DEFAULT_BATCH = 50_000
# Largest exponent allowed for a plain-domain scale (double overflows at ~709.8).
_LOG_CAP = 700.0

# Stream tags outside the per-atom index range.
_CROSS_STREAM = 1 << 20
_SHELL_STREAM = (1 << 20) + 1


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit stream seed from a base seed and an index path."""
    entropy = [int(seed) & _U64] + [int(p) & _U64 for p in path]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for one estimator call.

    samples counts draws per stream (per atom for mutual information); isotropic
    streams split them over up to 64 radial strata, dense streams have a single
    stratum. batch is the evaluation chunk (default min(samples, 50000)).
    """

    samples: int
    seed: int
    batch: int | None = None

    def __post_init__(self):
        if self.samples < 100:
            raise ValueError(f"samples must be >= 100, got {self.samples}")
        if self.batch is not None and not (1 <= self.batch <= self.samples):
            raise ValueError(f"batch must lie in [1, samples], got {self.batch}")

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


def _batch_plan(total: int, batch: int) -> list[tuple[int, int]]:
    """(batch index, batch size) pairs that cover total draws in order."""
    return [(b, min(batch, total - start))
            for b, start in enumerate(range(0, total, batch))]


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
    """Squared norms of the rows of xs; ScaleOverflowError if one, or on isotropic
    channels its output variance noise_var + iso_var ||x||^2, is not finite."""
    with np.errstate(over="ignore"):
        norms_sq = np.sum(np.abs(xs) ** 2, axis=1)
        var = norms_sq if model.iso_var is None else model.noise_var + model.iso_var * norms_sq
    if not np.all(np.isfinite(var)):
        raise ScaleOverflowError("input squared norms or variances exceed double range")
    return norms_sq


def _stratified_radii_sq(seed_key: int, offset: int, nb: int, m: int,
                         n_strata: int):
    """Normalized squared radii s = ||y||^2 / c for y ~ CN(0, c I_m).

    s follows Gamma(m, 1); draws are stratified over n_strata equiprobable
    radial shells, cycling stratum ids from the given offset so allocation
    stays balanced across batches: s = _gamma_quantile of q = (id + u) / n_strata,
    with 1 - q as (n_strata - id - u) / n_strata. Returns (ids, s).
    """
    u = np.random.default_rng(seed_key).random(nb)
    ids = (offset + np.arange(nb)) % n_strata
    return ids, _gamma_quantile(m, (ids + u) / n_strata, (n_strata - ids - u) / n_strata)


def _weighted_mix(logp: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column-wise ln sum_j w_j exp(logp[j, :]), shift-stabilized.

    logp is component-major, (k, n): one row per atom, one column per
    sample, so the shift is a reduction over the short axis. Zero-weight
    rows are dropped before the shift, so they cannot drag it and underflow
    the whole column.
    """
    if np.any(weights <= 0.0):
        keep = weights > 0.0
        logp = logp[keep]
        weights = weights[keep]
    amax = np.max(logp, axis=0)
    return amax + np.log(weights @ np.exp(logp - amax))


def _stratified_moments(batches, weights: np.ndarray, n_strata: int) -> tuple[float, float]:
    """Mean and SE of the mixture log density over (stratum ids, logp)
    batches; the mean averages the equiprobable strata's. One stratum (the
    dense path, ids None) reduces by plain sums.
    """
    s1, s2, count = np.zeros(n_strata), np.zeros(n_strata), np.zeros(n_strata)
    for ids, logp in batches:
        mix = _weighted_mix(logp, weights)
        if n_strata == 1:
            s1 += mix.sum()
            s2 += mix @ mix
            count += mix.size
            continue
        s1 += np.bincount(ids, weights=mix, minlength=n_strata)
        s2 += np.bincount(ids, weights=mix * mix, minlength=n_strata)
        count += np.bincount(ids, minlength=n_strata)
    means = s1 / count
    mean = float(np.sum(means)) / n_strata
    var = np.maximum(s2 - s1 * means, 0.0) / np.maximum(count - 1, 1)
    return mean, math.sqrt(float(np.sum(var / count)) / (n_strata * n_strata))


def chi_square_tail(t: float, m: int) -> float:
    """P(||y||^2 > t*c) for y ~ CN(0, c I_m): exp(-t) sum_{k<m} t^k / k!.

    This is the regularized upper incomplete gamma function of integer
    order m.
    """
    if not t >= 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    if math.isinf(t):
        return 0.0
    from scipy.special import gammaincc
    return float(gammaincc(m, t))


def log_chi_square_tail(log_t: float, m: int) -> float:
    """log of chi_square_tail(exp(log_t), m), stable for extreme thresholds.

    For m > 1 it is log gammaincc(m, t) wherever that is a normal double:
    the terms of the log-domain series -t + log sum_{k<m} t^k / k! cancel as
    m grows. The series is kept where the tail underflows, and for m = 1,
    where it is -t exactly.
    """
    if math.isnan(log_t):
        raise ValueError("log threshold must not be NaN")
    if log_t == -math.inf:
        return 0.0
    if log_t > 709.0:  # exp would overflow; the tail is identically 0 there
        return -math.inf
    t = math.exp(log_t)
    if m > 1:
        from scipy.special import gammaincc
        q = float(gammaincc(m, t))
        if q >= np.finfo(float).tiny:
            return math.log(q)
    terms = [k * log_t - math.lgamma(k + 1) for k in range(m)]
    return float(-t + np.logaddexp.reduce(terms))


def _monomials(w: np.ndarray, upper) -> np.ndarray:
    """(M^2, n) second-order monomials of the n draws w (n, M): |w_p|^2 for
    each p, then Re and Im of conj(w_p) w_q for each p < q (upper)."""
    w = w.T
    cross = w[upper[0]].conj() * w[upper[1]]
    return np.concatenate((w.real ** 2 + w.imag ** 2, cross.real, cross.imag))


def _norm_coefficients(a: np.ndarray, upper) -> np.ndarray:
    """(k, M^2) rows c_j with c_j @ _monomials(w) = ||A_j w||^2 for a (k, M, M):
    with G = A^H A, the diagonal of G, then 2 Re G_pq and -2 Im G_pq for p < q."""
    g = np.conj(np.swapaxes(a, 1, 2)) @ a
    off = g[:, upper[0], upper[1]]
    return np.concatenate((np.diagonal(g, axis1=1, axis2=2).real,
                           2.0 * off.real, -2.0 * off.imag), axis=1)


class _RadialTable:
    """ln f_mu for one weight vector on composite Gauss-Legendre nodes in u = ||y||^2.

    ln f_mu(u) is a log-sum-exp of the lines ln w_j - M ln(pi c_j) - u / c_j.
    Panels are the octaves [c0 2^(j-1), c0 2^j] up from the noise variance c0
    (the least variance of any law), each cut into ceil(sqrt(M) / 3) equal
    parts so that a panel spans a few widths of the Gamma(M) peak (one part up
    to M = 9), split at the lines' crossovers and graded around each by its
    transition width 1 / |1/c_i - 1/c_j|. None of it depends on the input, so
    one table serves every input. The octaves the atoms' laws need are
    tabulated in one block, later ones one at a time, so a node's value does
    not depend on which inputs came before. An input needs the nodes up to
    the end of the first octave that holds its law's tail (node_counts), and
    inputs that need the same count form one group of the batched quadrature.
    """

    def __init__(self, laws: "_ConditionalLaws", weights: np.ndarray):
        self.laws, self.weights = laws, weights
        i, j = laws.pairs
        live = (weights[i] > 0.0) & (weights[j] > 0.0) & (laws.inv_var[i] != laws.inv_var[j])
        i, j = i[live], j[live]
        b = (np.log(weights[i]) - laws.log_norm[i]) - (np.log(weights[j]) - laws.log_norm[j])
        slope = laws.inv_var[i] - laws.inv_var[j]
        splits = ((b / slope)[:, None] + _CROSSOVER_GRADING / np.abs(slope)[:, None]).ravel()
        self.splits = splits[splits > 0.0]
        parts = math.ceil(math.sqrt(laws.model.M) / 3.0)
        self.cuts = [j / parts for j in range(1, parts)]  # inner panel edges, in octave widths
        self.ends: list[int] = []  # node count up to the end of each octave
        self.tops: list[float] = []  # each octave's upper edge in u
        self._tabulate(max(0, math.ceil(math.log2(laws.u_max / laws.model.noise_var))))

    def _tabulate(self, top: int):
        """Append the octaves after the last tabulated one, up to octave top."""
        c0, first = self.laws.model.noise_var, len(self.ends)
        bounds = [math.ldexp(c0, j) for j in range(first, top + 1)]
        lo = 0.0 if first == 0 else math.ldexp(c0, first - 1)
        inner = self.splits[(self.splits > lo) & (self.splits < bounds[-1])]
        cuts = [a + (b - a) * f for a, b in zip([lo] + bounds[:-1], bounds) for f in self.cuts]
        edges = np.sort(np.concatenate(([lo], inner, cuts, bounds)))
        edges = edges[np.append(True, edges[1:] > edges[:-1])]  # np.unique loads numpy.ma
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        u = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
        logp = -np.outer(self.laws.inv_var, u) - self.laws.log_norm[:, None]
        du = (half[:, None] * _GL_WEIGHTS).ravel()
        lnf = _weighted_mix(logp, self.weights)
        if first:
            u, du = np.concatenate((self.u, u)), np.concatenate((self.du, du))
            logp = np.concatenate((self.logp, logp), axis=1)
            lnf = np.concatenate((self.lnf, lnf))
        base = self.ends[-1] if first else 0
        self.ends += (base + _GL_NODES.size * np.searchsorted(edges, bounds)).tolist()
        self.tops += bounds
        self.u, self.du, self.logp, self.lnf = u, du, logp, lnf

    def node_counts(self, u_max: np.ndarray) -> np.ndarray:
        """Node counts of the octaves that cover [0, u_max], tabulating new ones."""
        while self.tops[-1] < u_max.max():
            self._tabulate(len(self.ends))
        return np.asarray(self.ends)[np.searchsorted(self.tops, u_max)]


class _ConditionalLaws:
    """Pre-factored conditional output laws p(.|x_j) for a fixed atom list.

    For isotropic fading the law depends on the input norm only, so the
    per-sample work reduces to outer products of squared radii against the
    per-atom scalar variances. Otherwise the atoms' Cholesky factors L_j and
    their inverses are kept, and draws are kept as their monomials, against
    which log densities are quadratic forms. log_norm holds ln det(pi C_j)
    on both paths. The draws of the last stream used are kept (read-only),
    so consecutive inputs evaluated on one stream, such as the non-atom
    points of a KKT scan, share one set of samples instead of redrawing it.
    On isotropic channels the radial quadrature takes a whole batch of input
    variances at once (radial_weights, cross_quadratures) on one _RadialTable
    per call. An atom whose squared norm or variance is not a finite double
    raises ScaleOverflowError.
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
            self.pairs = np.triu_indices(self.scalar_var.size, 1)
            self.tail_s = _tail_quantile(model.M)
            self.u_max = float(np.max(self.scalar_var)) * self.tail_s
        else:
            _, self.factors, log_det = _conditional_covariances(model, self.atoms)
            self.inv_factors = np.linalg.inv(self.factors)
            self.log_norm = model.M * math.log(math.pi) + log_det
            self.upper = np.triu_indices(model.M, 1)
        self._draws_key = self._draws = None

    def scalar_variance(self, x) -> float:
        """c_x = noise_var + iso_var ||x||^2, the variance of p(.|x), isotropic only."""
        return self.model.noise_var + self.model.iso_var * float(np.real(np.vdot(x, x)))

    def n_strata(self, cfg: McConfig) -> int:
        """Radial strata of isotropic streams: at least 8 draws each, at most 64."""
        return max(1, min(64, cfg.samples // 8)) if self.iso else 1

    def _stream_draws(self, cfg: McConfig, stream: int) -> list:
        """Per-batch draws of one stream, seeded by (seed, stream, batch).

        Isotropic channels get (ids, s): stratum ids and normalized squared
        radii; the general path gets the (M^2, n) monomials (_monomials) of
        the complex standard normals w (n, M). Only the last stream's draws
        are cached.
        """
        key = (cfg, stream)
        if key != self._draws_key:
            m = self.model.M
            n_strata = self.n_strata(cfg)
            draws = []
            offset = 0
            for b, nb in _batch_plan(cfg.samples, cfg.effective_batch):
                seed_key = derive_seed(cfg.seed, stream, b)
                if self.iso:
                    draw = _stratified_radii_sq(seed_key, offset, nb, m, n_strata)
                    draw[0].flags.writeable = draw[1].flags.writeable = False
                else:
                    draw = _monomials(_complex_standard_normals(seed_key, nb, m), self.upper)
                    draw.flags.writeable = False
                draws.append(draw)
                offset += nb
            self._draws_key, self._draws = key, draws
        return self._draws

    def stream_log_densities(self, x, cfg: McConfig, stream: int, factor=None):
        """Yield (stratum ids, logp) per batch of the stream's samples of p(.|x).

        logp is (k, n): row j holds ln p(y|x_j) at the batch's n outputs. On
        dense channels ids is None (one stratum), and row j is
        -w^H G_j w - log_norm[j] with G_j = A_j^H A_j, A_j = L_j^-1 L_x: one
        (k, M^2) @ (M^2, n) matmul of the forms' coefficients with the cached
        monomials for all atoms. factor is L_x when the caller already has it.
        """
        if self.iso:
            ratios = self.scalar_variance(x) / self.scalar_var
            for ids, s in self._stream_draws(cfg, stream):
                yield ids, -np.outer(ratios, s) - self.log_norm[:, None]
            return
        if factor is None:
            factor = conditional_covariance(self.model, x).factor
        coef = -_norm_coefficients(self.inv_factors @ factor, self.upper)
        for monomials in self._stream_draws(cfg, stream):
            logp = coef @ monomials
            logp -= self.log_norm[:, None]
            yield None, logp

    def radial_weights(self, cxs, weights):
        """(table, groups), isotropic only: for the inputs of variances cxs that
        need n nodes, group (rows, q, n) gives E[g(||Y||^2)] ~ q @ g(table.u[:n]).

        ||Y||^2 ~ Gamma(M, c_x); a row of q is its density times the node
        weights of the octaves that hold all but _TAIL_MASS of it, computed
        elementwise. Each call builds its own table.
        """
        table = _RadialTable(self, np.asarray(weights, dtype=float))
        m, cxs = self.model.M, np.asarray(cxs, dtype=float)
        counts = table.node_counts(cxs * self.tail_s)
        order = np.argsort(counts, kind="stable")
        ns, cx_sorted = counts[order].tolist(), cxs[order, None]
        groups, start = [], 0
        for end in range(1, len(ns) + 1):
            if end < len(ns) and ns[end] == ns[start]:
                continue
            n, cx = ns[start], cx_sorted[start:end]
            r = table.u[:n] / cx
            # r^(m-1) e^-r / (m-1)! in one exp: each factor leaves double range near M = 150
            log_density = -r if m == 1 else (m - 1) * np.log(r) - r - math.lgamma(m)
            groups.append((order[start:end], table.du[:n] * np.exp(log_density) / cx, n))
            start = end
        return table, groups

    def cross_quadratures(self, cxs, weights) -> np.ndarray:
        """E_{Y~p(.|x)}[ln f_mu(Y)] for inputs of variances cxs, isotropic only.
        Rows reduce by np.add.reduce, not BLAS, so a value is the same in any batch."""
        table, groups = self.radial_weights(cxs, weights)
        out = np.empty(np.size(cxs))
        for rows, q, n in groups:
            out[rows] = np.add.reduce(q * table.lnf[:n], axis=1)
        return out

    def cross_quadrature(self, x, weights) -> float:
        """cross_quadratures for the one input x."""
        return float(self.cross_quadratures([self.scalar_variance(x)], weights)[0])

    def stream_stats(self, x, weights, cfg: McConfig, stream: int,
                     factor=None) -> tuple[float, float]:
        """Mean and SE of ln f_mu(Y) over Y ~ p(.|x), accumulated batch-wise.

        Isotropic channels sample the normalized squared radius directly,
        stratified over equiprobable shells; the general path evaluates the
        log densities as quadratic forms in the draws (stream_log_densities).
        factor is L_x, if known.
        """
        return _stratified_moments(self.stream_log_densities(x, cfg, stream, factor),
                                   np.asarray(weights, dtype=float),
                                   self.n_strata(cfg))


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
    x = _as_input(model, x)
    _finite_norms_sq(x[None], model)
    mean, se = _ConditionalLaws(model, mu.atoms).stream_stats(
        x, mu.weights, cfg, _stream_indices(mu.atoms, x[None])[0])
    return McEstimate(mean, se, cfg.samples, cfg.seed)


def mutual_information(model: ChannelModel, mu: DiscreteMeasure, cfg: McConfig) -> McEstimate:
    """Estimate I(mu; W) = sum_i w_i E_{y~p(.|x_i)}[ln p(y|x_i) - ln f_mu(y)].

    Stratified sampler with cfg.samples draws per atom; the estimate is
    nonnegative up to Monte Carlo error (about -3 standard errors). The
    conditional-entropy term is exact, so only the mixture cross terms carry
    Monte Carlo error.
    """
    laws = _ConditionalLaws(model, mu.atoms)
    neg_h = np.array([-conditional_entropy(model, x) for x in mu.atoms])
    stats = [laws.stream_stats(x, mu.weights, cfg, i) for i, x in enumerate(mu.atoms)]
    cross, cross_se = (np.array(v) for v in zip(*stats))
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
    neg_h = np.array([-conditional_entropy(model, x) for x in mu.atoms])
    cross = laws.cross_quadratures(laws.scalar_var, mu.weights)
    return McEstimate(_information(mu.weights, neg_h, cross), 0.0, 0, cfg.seed)


def _shell_probabilities(model: ChannelModel, dirs: np.ndarray, log_norms: np.ndarray,
                         log_rho: np.ndarray, cfg: McConfig) -> list[McEstimate]:
    """shell_probability for the K inputs x_i = ||x_i|| u_i, each against its own shell.

    dirs holds the unit directions u_i (K, N), log_norms ln ||x_i|| (-inf at
    the origin) and log_rho the rows (ln rho1, ln rho2), so no scale has to
    fit in a double. C(x) = noise_var I + ||x||^2 D(u) with D(u) = (I kron
    u^H) Sigma (I kron u); it is the scalar matrix c I, c = noise_var +
    ||x||^2 d with d the mean of D(u)'s diagonal, when ||x||^2 max|D(u) - d I|
    <= 1e-9 c. That test and the mass are taken in logs: ||y||^2 / c is
    Gamma(M, 1), so the mass is the difference of two log-domain gamma tails,
    exact with std_error 0 at any scale. All other inputs share the shell
    stream, drawn once per batch: the squared radii ||L_x w||^2 of every
    input come from one matmul of their coefficients with the batch's
    monomials. Their squared norms must stay below e^700 (ScaleOverflowError).
    """
    m = model.M
    d = np.einsum("kn,mnpq,kq->kmp", dirs.conj(), model._sigma4, dirs)
    d_mean = np.mean(np.diagonal(d, axis1=1, axis2=2).real, axis=1)
    spread = np.max(np.abs(d - d_mean[:, None, None] * np.eye(m)), axis=(1, 2))
    with np.errstate(divide="ignore"):
        log_c = np.logaddexp(math.log(model.noise_var), np.log(d_mean) + 2.0 * log_norms)
        scalar = np.log(spread) + 2.0 * log_norms <= math.log(1e-9) + log_c
    mc = np.flatnonzero(~scalar)
    hits = np.zeros(len(dirs), dtype=np.int64)
    if mc.size:
        if np.any(2.0 * log_norms[mc] >= _LOG_CAP):
            raise ScaleOverflowError("input squared norms exceed double range for Monte Carlo")
        _, factors, _ = _conditional_covariances(model, np.exp(log_norms[mc])[:, None] * dirs[mc])
        upper = np.triu_indices(m, 1)
        coef = _norm_coefficients(factors, upper)
        with np.errstate(over="ignore"):  # a radius past double range acts as infinite
            rho = np.exp(log_rho[mc])
        for b, nb in _batch_plan(cfg.samples, cfg.effective_batch):
            w = _complex_standard_normals(derive_seed(cfg.seed, _SHELL_STREAM, b), nb, m)
            r = np.sqrt(coef @ _monomials(w, upper))
            hits[mc] += np.count_nonzero((r >= rho[:, :1]) & (r < rho[:, 1:]), axis=1)
    n, out = cfg.samples, []
    for is_scalar, lc, (lr1, lr2), h in zip(scalar, log_c, log_rho, hits):
        if is_scalar:
            q1, q2 = (log_chi_square_tail(2.0 * lr - lc, m) for lr in (lr1, lr2))
            out.append(McEstimate(math.exp(q1) - math.exp(q2), 0.0, 0, cfg.seed))
        else:
            p = float(h) / n
            out.append(McEstimate(p, math.sqrt(p * (1.0 - p) * n / (n - 1) / n), n, cfg.seed))
    return out


def shell_probability(model: ChannelModel, x, shell: OutputShell, cfg: McConfig) -> McEstimate:
    """Probability that ||y|| lands in [rho1, rho2) under y ~ p(.|x).

    If C(x) is a scalar matrix (isotropic channels, M == 1, or any channel
    along a direction u with D(u) scalar) the value is exact with std_error
    0, via log-domain gamma tails; otherwise it is estimated by Monte Carlo
    on the shell stream. It is the one-input case of _shell_probabilities.
    """
    x = _as_input(model, x)
    norm = float(np.linalg.norm(x))
    u = x / norm if norm > 0.0 else np.eye(model.N, dtype=complex)[0]
    with np.errstate(divide="ignore"):
        return _shell_probabilities(model, u[None], np.log([norm]),
                                    np.log([[shell.rho1, shell.rho2]]), cfg)[0]
