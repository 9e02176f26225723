"""First-order optimality functional, analytic lower bounds, violation scans.

The optimality functional for a candidate input distribution mu with
multiplier gamma and value C is

    KKT(x) = gamma (||x||^2/N - a) + C + M ln(pi e) + ln det C(x)
             + E_{y~p(.|x)}[ln f_mu(y)]

which is >= 0 everywhere and 0 on the support of an optimal mu. The shell
bounds below replace the cross term by an analytic floor built from a mass
guarantee on an input shell, which closes to an explicit support radius when
the slope in ||x||^2 is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (LOG_PI, LOG_PI_E, ChannelModel, _as_input, _as_inputs,
                      _check_positive_int, _check_seed, _conditional_covariances, _is_int,
                      input_norm_sq)
from .errors import InsufficientMassError, SlopeNonPositiveError
from .estimate import McConfig, McEstimate, _ConditionalLaws, derive_seed
from .measure import DiscreteMeasure, InputShell


@dataclass(frozen=True)
class KktContext:
    """Multiplier gamma (nats per power unit), budget a, value C(a) in nats."""

    gamma: float
    a: float
    capacity: float

    def __post_init__(self):  # an inf field makes KKT values NaN (0 * inf) or +inf: no violation
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"power budget must be positive and finite, got {self.a}")
        if not 0.0 <= self.capacity < math.inf:
            raise ValueError(f"capacity must be finite and >= 0, got {self.capacity}")


@dataclass(frozen=True)
class Lemma1Bound:
    """Shell data certifying a floor on the mixture cross term.

    mass is the measure of the input shell; pi_bar is a certified upper
    bound on det C(x) over the shell; log_a = ln(mass / (pi^M pi_bar)).
    """

    shell: InputShell
    mass: float
    pi_bar: float
    log_a: float


def certified_pi_bar(model: ChannelModel, shell: InputShell) -> float:
    """(noise_var + lambda_max r2_sq)^M, a valid maximum of det C over the shell.

    Exact for isotropic fading; an upper bound otherwise by the eigenvalue
    sandwich on C(x).
    """
    if math.isinf(shell.r2_sq):
        raise ValueError("shell must have a finite outer bound")
    return (model.noise_var + model.lambda_max * shell.r2_sq) ** model.M


def lemma1_bound(model: ChannelModel, shell: InputShell, mass: float,
                 pi_bar: float | None = None) -> Lemma1Bound:
    """Assemble a Lemma1Bound, defaulting pi_bar to the certified shell maximum."""
    if not 0.0 <= mass <= 1.0 + 1e-12:
        raise ValueError(f"mass must lie in [0, 1], got {mass}")
    if pi_bar is None:
        pi_bar = certified_pi_bar(model, shell)
    if not 0.0 < pi_bar < math.inf:
        raise ValueError(f"pi_bar must be positive and finite, got {pi_bar}")
    log_a = (math.log(mass) if mass > 0.0 else -math.inf) \
        - model.M * LOG_PI - math.log(pi_bar)
    return Lemma1Bound(shell=shell, mass=float(mass), pi_bar=float(pi_bar), log_a=log_a)


def _lemma1_floor(model: ChannelModel, bound: Lemma1Bound, gamma: float = 0.0):
    """(d, s): d = noise_var + lambda_min r1_sq and the KKT floor's slope s = gamma/N -
    M lambda_max / d in ||x||^2; InsufficientMassError if the shell carries no mass."""
    if bound.mass <= 0.0:
        raise InsufficientMassError("shell mass must be positive for the bound")
    denom = model.noise_var + model.lambda_min * bound.shell.r1_sq
    return denom, gamma / model.N - model.M * model.lambda_max / denom


def lemma1_lower_bound(model: ChannelModel, bound: Lemma1Bound, x) -> float:
    """Analytic floor on E_{y~p(.|x)}[ln f_mu(y)] for any mu carrying the shell mass.

    Returns log_a - M (noise_var + lambda_max ||x||^2) / (noise_var + lambda_min r1_sq),
    affine and decreasing in ||x||^2.
    """
    denom, _ = _lemma1_floor(model, bound)
    x = _as_input(model, x)
    num = model.M * (model.noise_var + model.lambda_max * input_norm_sq(x))
    return bound.log_a - num / denom


def _kkt_lower_bounds(model: ChannelModel, bound: Lemma1Bound, ctx: KktContext, xs) -> np.ndarray:
    """kkt_lower_bound at each of the inputs xs, from one batched covariance call."""
    denom, slope = _lemma1_floor(model, bound, ctx.gamma)
    xs = _as_inputs(model, xs)
    return (np.array([input_norm_sq(x) for x in xs]) * slope
            - ctx.gamma * ctx.a + ctx.capacity + model.M * LOG_PI_E
            + _conditional_covariances(model, xs)[2]
            + bound.log_a - model.M * model.noise_var / denom)


def kkt_lower_bound(model: ChannelModel, bound: Lemma1Bound, ctx: KktContext, x) -> float:
    """Analytic floor on KKT(x) obtained from the shell cross-term bound."""
    return float(_kkt_lower_bounds(model, bound, ctx, [x])[0])


def support_radius_bound(model: ChannelModel, bound: Lemma1Bound, ctx: KktContext) -> float:
    """Squared-norm radius R^2 beyond which no optimal support atom can live.

    Uses ln det C(x) >= M ln noise_var (the signal term is PSD), so the
    floored KKT lower bound vanishes exactly at R^2. Requires the slope
    s = gamma/N - M lambda_max / (noise_var + lambda_min r1_sq) to be
    positive; raises SlopeNonPositiveError otherwise.
    """
    denom, s = _lemma1_floor(model, bound, ctx.gamma)
    if s <= 0.0:
        raise SlopeNonPositiveError(
            f"slope gamma/N - M lambda_max/(noise_var + lambda_min r1_sq) = {s:.6g} <= 0; "
            "increase gamma or use a shell with larger r1_sq")
    num = (ctx.gamma * ctx.a - ctx.capacity - model.M * LOG_PI_E
           - model.M * math.log(model.noise_var) - bound.log_a
           + model.M * model.noise_var / denom)
    return max(num / s, 0.0)


def _kkt_values(model: ChannelModel, mu: DiscreteMeasure, ctx: KktContext, xs: np.ndarray,
                cfg: McConfig):
    """(KKT, SE, ||x||^2) at the rows of xs, the cross terms and ln det C(x) from one
    _ConditionalLaws.cross_terms call. A squared norm or variance past double range
    raises ScaleOverflowError."""
    cross, ses, log_det, norms_sq = _ConditionalLaws(model, mu.atoms).cross_terms(
        mu.weights, cfg, xs)
    values = (ctx.gamma * (norms_sq / model.N - ctx.a) + ctx.capacity
              + model.M * LOG_PI_E + log_det + cross)
    return values, ses, norms_sq


def kkt_value(model: ChannelModel, mu: DiscreteMeasure, ctx: KktContext, x,
              cfg: McConfig) -> McEstimate:
    """KKT(x). Isotropic channels take the cross term by radial quadrature
    (SE 0, samples 0), others by Monte Carlo, the only source of the SE."""
    values, ses, _ = _kkt_values(model, mu, ctx, _as_input(model, x)[None], cfg)
    samples = 0 if model.iso_var is not None else cfg.samples
    return McEstimate(float(values[0]), float(ses[0]), samples, cfg.seed)


class KktPoint(NamedTuple):
    """One evaluated input, an immutable named tuple: its vector, squared norm, KKT
    value and SE. A scan builds hundreds of them, at half a frozen dataclass's cost."""

    x: np.ndarray
    norm_sq: float
    value: float
    std_error: float


@dataclass(frozen=True)
class KktReport:
    """Scan result: grid evaluations, support evaluations, and the minimum."""

    points: tuple[KktPoint, ...]
    support: tuple[KktPoint, ...]

    @property
    def minimum(self) -> float:
        return min(p.value for p in self.points + self.support)

    @property
    def argmin_norm_sq(self) -> float:
        best = min(self.points + self.support, key=lambda p: p.value)
        return best.norm_sq

    def violations(self, threshold: float | None = None) -> list[KktPoint]:
        """Statistically significant negative points.

        With no threshold: points below -3 SE. With a threshold: points
        below -(threshold + 3 SE), so a violation is both significant and
        beyond the tolerance.
        """
        if threshold is None:
            return [p for p in self.points + self.support
                    if p.value < -3.0 * p.std_error]
        return [p for p in self.points + self.support
                if p.value < -(threshold + 3.0 * p.std_error)]

    def support_residuals(self) -> list[float]:
        return [abs(p.value) for p in self.support]

    def summary(self) -> dict:
        return {
            "minimum": self.minimum,
            "argmin_norm_sq": self.argmin_norm_sq,
            "violations": [{"norm_sq": p.norm_sq, "kkt": p.value, "se": p.std_error}
                           for p in self.violations()],
            "support_residuals": self.support_residuals(),
        }


def radial_scan_grid(model: ChannelModel, max_norm_sq: float,
                     points_per_decade: int = 64, decades: int = 4,
                     n_directions: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Zero plus log-spaced squared norms up to max_norm_sq.

    Isotropic channels get a single canonical direction (the law depends on
    the norm only); otherwise the first coordinate direction plus
    n_directions random unit directions, drawn from seed, an integer in
    [0, 2^64) on every channel (ValueError outside it).
    """
    _check_seed(seed)
    if not 0.0 < max_norm_sq < math.inf:
        raise ValueError(f"max_norm_sq must be positive and finite, got {max_norm_sq}")
    _check_positive_int(points_per_decade, "points_per_decade")
    _check_positive_int(decades, "decades")
    if not (_is_int(n_directions) and n_directions >= 0):
        raise ValueError(f"n_directions must be a nonnegative integer, got {n_directions!r}")
    count = points_per_decade * decades + 1
    norms = np.geomspace(max_norm_sq * 10.0 ** (-decades), max_norm_sq, count)
    e0 = np.zeros(model.N, dtype=complex)
    e0[0] = 1.0
    directions = [e0]
    if model.iso_var is None:
        rng = np.random.default_rng(derive_seed(seed, 0xD1))
        for _ in range(n_directions):
            v = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
            directions.append(v / np.linalg.norm(v))
    grid = [np.zeros(model.N, dtype=complex)]
    for u in directions:
        for t in norms:
            grid.append(math.sqrt(t) * u)
    return grid


def kkt_scan(model: ChannelModel, mu: DiscreteMeasure, ctx: KktContext,
             grid, cfg: McConfig) -> KktReport:
    """Evaluate KKT on every grid point and every atom of mu.

    The grid is validated as one array, and all points share one
    _ConditionalLaws.cross_terms call for mu: one batched radial quadrature on
    isotropic channels, else Monte Carlo with one batch of Cholesky factors,
    each atom on its own stream and the non-atom points on the cross stream.
    Each value equals kkt_value's bit for bit. A point or atom whose squared
    norm or variance is not a finite double raises ScaleOverflowError.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("scan grid must be nonempty")
    xs = np.concatenate((_as_inputs(model, grid), mu.atoms))
    values, ses, norms_sq = _kkt_values(model, mu, ctx, xs, cfg)
    points = tuple(map(KktPoint._make, zip(xs, norms_sq.tolist(), values.tolist(), ses.tolist())))
    return KktReport(points=points[:len(grid)], support=points[len(grid):])
