"""Shell-decoder witness that the power multiplier is strictly positive.

The construction places n atoms at doubly exponential scales K_i = K^(2^i)
along a fixed direction and decodes them with disjoint output annuli
D_i = { y : r_i <= ||y|| < r_(i+1) }, r_i = sqrt(noise_var + lambda_min) K_i.
Each shell catches at least

    F(K_i) (exp(-a_i r_i^2) - exp(-a_i r_(i+1)^2)),
    a_i = 1 / (noise_var + lambda_min K_i^2),

of its atom's output mass, which stays above a scale-free constant lambda
for large K. Fano's inequality (block length 1) then gives
I(mu_n; W) >= lambda ln(n) - 1 for the uniform measure mu_n on the atoms,
so the mutual information is unbounded over n and the power constraint must
bind. Everything is evaluated in the log domain: K_i exceeds double range
after a handful of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, _as_input, _check_positive_int
from .errors import ScaleOverflowError
from .estimate import (_LOG_CAP, McConfig, McEstimate, _mutual_information,
                       _shell_probabilities)
from .measure import DiscreteMeasure


def lambda_constant(model: ChannelModel) -> tuple[float, float]:
    """The detection floor constant, in both printed and limit-consistent forms.

    lambda_paper uses the eigenvalue ratio lambda_min/lambda_max to the first
    power; lambda_impl raises it to the M-th power, which is the actual
    large-K limit of F(K_i)/2 times the exponential factor. The two coincide
    for M = 1 or equal extreme eigenvalues. omega_{2M} = 2 pi^M / (M-1)!
    is the surface area of the unit sphere in C^M.
    """
    m = model.M
    ratio = model.lambda_min / model.lambda_max
    expo = math.exp(-(model.noise_var + model.lambda_min) / model.lambda_min)
    # omega_{2M} / (2 pi^M) = 1 / (M-1)!
    base = 0.5 * expo * math.exp(-math.lgamma(m))  # 0 once (M-1)! passes double range
    return base * ratio, base * ratio ** m


@dataclass(frozen=True)
class FanoConstruction:
    """Atoms, shells, and constants of the shell-decoder witness, in log domain.

    log_k[i] = ln K_(i+1) for i = 0..n-1; log_r has n+1 entries, the last
    closing the final shell; log_a[i] = ln a_(i+1); f_values[i] = F(K_(i+1)).
    For K > 1 both log_k and log_r are strictly increasing; K = 1 degenerates
    to empty shells. log_cap_headroom = 700 - n 2^n ln K, the room below the cap.
    """

    n: int
    k_base: float
    direction: np.ndarray
    log_k: np.ndarray
    log_r: np.ndarray
    log_a: np.ndarray
    f_values: np.ndarray
    lambda_paper: float
    lambda_impl: float
    log_cap_headroom: float

    @property
    def atoms_representable(self) -> bool:
        """True if the plain-domain atoms and their squared norms fit in doubles."""
        return 2.0 * float(self.log_k[-1]) < _LOG_CAP

    def atoms(self) -> np.ndarray:
        """Plain-domain atom matrix K_i * direction (rows)."""
        if not self.atoms_representable:
            raise ScaleOverflowError(
                "atom squared norms exceed double range; use the log-domain fields")
        return np.exp(self.log_k)[:, None] * self.direction[None, :]

    def measure(self) -> DiscreteMeasure:
        """Uniform discrete measure on the atoms."""
        return DiscreteMeasure(self.atoms(), np.full(self.n, 1.0 / self.n))

    def log_average_power(self) -> float:
        """ln of sum_i ||x_i||^2 / (n N)."""
        return float(np.logaddexp.reduce(2.0 * self.log_k) - math.log(self.n)
                     - math.log(self.direction.shape[0]))


def build_construction(model: ChannelModel, n: int, K: float,
                       direction=None) -> FanoConstruction:
    """Atoms x_i = K^(2^i) u for i = 1..n with their decoding shells.

    Requires K >= 1 and n * 2^n * ln(K) <= 700 so that every log-domain
    quantity stays finite in double precision; raises ScaleOverflowError
    otherwise.
    """
    _check_positive_int(n, "n")
    K = float(K)
    if not K >= 1.0:
        raise ValueError(f"K must be >= 1, got {K}")
    if direction is None:
        direction = np.zeros(model.N, dtype=complex)
        direction[0] = 1.0
    direction = _as_input(model, direction)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise ValueError("direction must have unit norm within 1e-12")
    log_K = math.log(K)
    headroom = _LOG_CAP - n * 2.0 ** n * log_K
    if headroom < 0.0:
        raise ScaleOverflowError(
            f"n * 2^n * ln(K) exceeds the {_LOG_CAP:.0f} cap by {-headroom:.1f}")
    log_k = np.array([(2.0 ** i) * log_K for i in range(1, n + 1)])
    log_k_next = (2.0 ** (n + 1)) * log_K
    base = model.noise_var + model.lambda_min
    log_r = 0.5 * math.log(base) + np.append(log_k, log_k_next)
    log_noise = math.log(model.noise_var)
    log_a = -np.logaddexp(log_noise, math.log(model.lambda_min) + 2.0 * log_k)
    log_num = np.logaddexp(log_noise, math.log(model.lambda_min) + 2.0 * log_k)
    log_den = np.logaddexp(log_noise, math.log(model.lambda_max) + 2.0 * log_k)
    f_values = np.exp(-math.lgamma(model.M) + model.M * (log_num - log_den))
    lam_paper, lam_impl = lambda_constant(model)
    return FanoConstruction(n=n, k_base=K, direction=direction, log_k=log_k,
                            log_r=log_r, log_a=log_a, f_values=f_values,
                            lambda_paper=lam_paper, lambda_impl=lam_impl,
                            log_cap_headroom=headroom)


@dataclass(frozen=True)
class FanoReport:
    """Per-shell detection audit plus the mutual-information side of the witness.

    detections[i] is the probability that atom i's output lands in shell i,
    exact with std_error 0 and samples 0 on every channel;
    bounds[i] is the analytic floor F_i (e^{-a_i r_i^2} - e^{-a_i r_(i+1)^2}).
    mutual_info is I(mu_n; W) of the uniform atom measure, exact on isotropic
    channels, and None when the atoms are not representable in plain doubles.
    margins_* are the detections minus lambda_impl and minus lambda_paper.
    """

    construction: FanoConstruction
    detections: tuple[McEstimate, ...]
    bounds: tuple[float, ...]
    lambda_paper: float
    lambda_impl: float
    min_detection: float
    meets_lambda: bool
    mutual_info: McEstimate | None
    fano_lower_bound: float
    average_power: float
    margins_impl: tuple[float, ...]
    margins_paper: tuple[float, ...]


def _analytic_shell_bound(fc: FanoConstruction, i: int) -> float:
    """F(K_i) (e^{-a_i r_i^2} - e^{-a_i r_(i+1)^2}) with overflow saturation."""
    log_t1 = fc.log_a[i] + 2.0 * fc.log_r[i]
    log_t2 = fc.log_a[i] + 2.0 * fc.log_r[i + 1]
    e1 = math.exp(-math.exp(log_t1)) if log_t1 <= _LOG_CAP else 0.0
    e2 = math.exp(-math.exp(log_t2)) if log_t2 <= _LOG_CAP else 0.0
    return float(fc.f_values[i]) * (e1 - e2)


def _report_mi(model: ChannelModel, fc: FanoConstruction, cfg: McConfig):
    """FanoReport.mutual_info: None unless the atoms are distinct and representable."""
    distinct = fc.atoms_representable and (fc.n == 1 or fc.k_base > 1.0)
    return _mutual_information(model, fc.measure(), cfg) if distinct else None


def detection_report(model: ChannelModel, fc: FanoConstruction, cfg: McConfig,
                     include_mi: bool = True) -> FanoReport:
    """Audit every shell against its analytic floor and the constant lambda.

    Each detection is _shell_probabilities on the atom's direction, ln K_i
    and its shell's log radii, so no scale leaves the log domain: exact on
    every channel, for atoms past double range too, and drawn from no
    stream. The MI is estimate._mutual_information's.
    """
    dirs = np.broadcast_to(fc.direction, (fc.n, fc.direction.size))
    log_rho = np.column_stack((fc.log_r[:-1], fc.log_r[1:]))
    detections = tuple(_shell_probabilities(model, dirs, fc.log_k, log_rho, cfg))
    bounds = tuple(_analytic_shell_bound(fc, i) for i in range(fc.n))
    min_detection = min(d.value for d in detections)
    mi = _report_mi(model, fc, cfg) if include_mi else None
    fano_lower = fc.lambda_impl * math.log(fc.n) - 1.0
    log_power = fc.log_average_power()
    avg_power = math.exp(log_power) if log_power < _LOG_CAP else math.inf
    return FanoReport(construction=fc, detections=detections, bounds=bounds,
                      lambda_paper=fc.lambda_paper, lambda_impl=fc.lambda_impl,
                      min_detection=min_detection,
                      meets_lambda=min_detection >= fc.lambda_impl,
                      mutual_info=mi, fano_lower_bound=fano_lower,
                      average_power=avg_power,
                      margins_impl=tuple(d.value - fc.lambda_impl for d in detections),
                      margins_paper=tuple(d.value - fc.lambda_paper for d in detections))


def find_sufficient_K(model: ChannelModel, n: int, cfg: McConfig) -> float:
    """Smallest K in 2, 4, 8, ... whose shells all detect with margin lambda_impl.

    Terminates because the shell floors approach twice lambda_impl as K grows;
    raises ScaleOverflowError if doubling exits the representable range first.
    """
    return _sufficient_report(model, n, cfg).construction.k_base


def _sufficient_report(model: ChannelModel, n: int, cfg: McConfig) -> FanoReport:
    """detection_report, without the MI, of the construction at find_sufficient_K's K."""
    K = 2.0
    while True:  # build_construction raises ScaleOverflowError at the cap
        report = detection_report(model, build_construction(model, n, K), cfg, include_mi=False)
        if report.min_detection >= report.lambda_impl:
            return report
        K *= 2.0
