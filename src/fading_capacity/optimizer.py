"""Discrete-input capacity optimization under an average power constraint.

Smith-style support search (Smith, 1971) in one phase: damped Newton steps on
the weights of a fixed support, which solve for the power multiplier in the
same step so that the optimal measure's power meets the budget, golden-section
moves of atom radii, and insertion of new atoms where a coarse scan of the
optimality functional dips negative. New atoms go to the minimum of the
nearest run of scan violations (the smallest-radius one along any scanned
direction), not to the global minimum, which on a truncated scan is often
just the scan cap. Tail atoms too light for the radius mover to resolve are
placed from the full certificate scan instead: such an atom is moved to the
minimum of the nearest violation run, and keeps following it, while the
power is matched again after each move. On isotropic channels every cross
term, and the capacity returned, is a radial quadrature; on dense channels
the Monte Carlo evaluations reuse common random numbers (streams keyed by
atom index, all on the base seed), so nearby supports compare with low
variance.
Either way the whole run is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelModel, _check_positive_int
from .estimate import (McConfig, McEstimate, _ConditionalLaws, _information,
                       _mutual_information, derive_seed)
from .kkt import KktContext, KktReport, kkt_scan, radial_scan_grid
from .measure import PRUNE_FLOOR, DiscreteMeasure, PowerConstraint

_MERGE_SQ = 1e-10
# below this weight the Lagrangian cannot resolve an atom's radius, so the
# mover leaves the atom alone and the certificate scan places it instead
_MOVE_RESOLUTION = 1e-5
# weight solves stop once the atoms' gains agree within this (nats); a
# Newton step may lower the objective by rounding noise up to the slack
_GAIN_TOLERANCE = 1e-9
_ASCENT_SLACK = 1e-12
# default cap on the squared norm scanned for new atoms, in units of a * N
_SEARCH_RADIUS_FACTOR = 48.0
# relative power excess over the budget that Optimum.converged allows
_POWER_TOLERANCE = 0.02


@dataclass(frozen=True)
class OptimizerConfig:
    """Budgets and tolerances for optimize_measure.

    kkt_tolerance is in nats. On dense channels the KKT scan is a Monte
    Carlo estimate, and the tolerance should stay above roughly three of its
    standard errors (optimize_measure warns when it likely does not);
    isotropic channels evaluate it by quadrature (SE 0). The support search
    runs at most outer_iterations + max(2, outer_iterations // 3) rounds.
    search_radius_sq caps the squared norm scanned for new atoms (None picks
    48 * a * N at run time).
    """

    mc: McConfig = field(default_factory=lambda: McConfig(samples=200_000, seed=0))
    max_atoms: int = 6
    outer_iterations: int = 10
    weight_iterations: int = 300
    kkt_tolerance: float = 5e-3
    search_radius_sq: float | None = None

    def __post_init__(self):
        for name in ("max_atoms", "outer_iterations", "weight_iterations"):
            _check_positive_int(getattr(self, name), name)
        if not self.kkt_tolerance > 0.0:
            raise ValueError("kkt_tolerance must be positive")
        if self.search_radius_sq is not None and not 0.0 < self.search_radius_sq < math.inf:
            raise ValueError("search_radius_sq must be positive and finite")


@dataclass(frozen=True)
class Optimum:
    """Certified optimization result.

    capacity_estimate is I(mu) at the final measure, exact on isotropic channels
    (std_error 0, samples 0), else fresh-seed Monte Carlo; gamma is the final
    support's exact power multiplier, solved with its weights (0 if slack);
    kkt_report is the certification scan; converged means no scan value
    below -kkt_tolerance, all support residuals within kkt_tolerance, power
    at most 2 % above the budget and, on isotropic channels, a closed tail:
    gamma > 0 and c_max gamma >= M N iso_var (c_max: the outermost atom's output variance).
    """

    measure: DiscreteMeasure
    capacity_estimate: McEstimate
    gamma: float
    kkt_report: KktReport
    converged: bool


class _SupportEvaluator:
    """Per-atom cross terms E_i[ln f_w] of a fixed support, as functions of w, from
    one _ConditionalLaws: cross_means(w) is its cross_terms at the atoms, as
    kkt_value takes them, and evaluate(w) its posteriors, the same cross means
    with the posteriors. Either is a smooth deterministic function of the
    weights. A weight solve calls evaluate hundreds of times, and the mover's
    evaluators call only cross_means.
    """

    def __init__(self, model: ChannelModel, atoms, mc: McConfig):
        laws = self._laws = _ConditionalLaws(model, atoms)
        self.model, self.k, self._mc = model, laws.atoms.shape[0], mc
        self.norms_sq, self.neg_h = laws.norms_sq, laws.neg_entropies()

    def cross_means(self, weights) -> np.ndarray:
        return self._laws.cross_terms(weights, self._mc)[0]

    def evaluate(self, weights) -> tuple[np.ndarray, np.ndarray]:
        """(cross_means(w), P) with P[i, j] = w_j E_i[p_j / f_mu], atom j's mean
        posterior under atom i's law."""
        return self._laws.posteriors(weights, self._mc)

    def mutual_information(self, weights) -> float:
        return _information(weights, self.neg_h, self.cross_means(weights))

    def lagrangian(self, weights, gamma: float, a: float) -> float:
        power = float(np.dot(weights, self.norms_sq) / self.model.N)
        return self.mutual_information(weights) - gamma * (power - a)


def _newton_step(post, w, gains, damping, excess=None):
    """Log-weight step that equalizes the gains to first order.

    The gains' Jacobian in log weights is -P up to normalization, so the
    Newton step solves P theta + lam = gains, w . theta = 0. damping blends
    P with the identity, whose step is the Blahut-Arimoto one. Returns
    (theta, None). Given excess, the atoms' power excess ||x_i||^2/N - a,
    the gains are taken before the power penalty and the multiplier is an
    unknown too: P theta + lam + gamma e = gains, w . theta = 0 and
    (w e) . theta = -w . e, so the step also meets the budget to first
    order. It returns (theta, gamma) then, gamma None when the system is
    singular.
    """
    k = w.size
    m = k + 1 if excess is None else k + 2
    system = np.zeros((m, m))
    system[:k, :k] = (1.0 - damping) * post + damping * np.eye(k)
    system[:k, k] = 1.0
    system[k, :k] = w
    rhs = np.append(gains, np.zeros(m - k))
    if excess is not None:
        system[:k, k + 1] = excess
        system[k + 1, :k] = w * excess
        rhs[k + 1] = -np.dot(w, excess)
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:  # singular: the plain Blahut-Arimoto step
        return gains, None
    return sol[:k], None if excess is None else float(sol[k + 1])


def _multiplicative_solve(ev: _SupportEvaluator, gamma: float | None, a: float,
                          iterations: int, w0=None):
    """Ascent of I - gamma*(P - a) over the simplex by multiplicative updates.

    Each step scales w_i by a factor set by theta_i, the damped Newton step
    of _newton_step. With gamma None the multiplier is solved for in the same
    step, so each step is the fixed-gamma one at the gamma that meets the
    power budget to first order; a negative gamma means the budget is slack,
    and the step is taken at gamma = 0. A step that lowers the objective, or
    leaves the weights where they are, is retried from the point before it
    with more damping (near-duplicate atoms make P nearly singular); damping
    1 gives the Blahut-Arimoto step. Stops when the gains of the atoms of
    weight >= PRUNE_FLOOR agree with the objective within _GAIN_TOLERANCE
    and no other gain exceeds it by more, when even the Blahut-Arimoto step
    no longer moves the weights, or when the budget runs out. Returns
    (weights, gamma, lagrangian).
    """
    k = ev.k
    w = np.full(k, 1.0 / k) if w0 is None else np.asarray(w0, dtype=float).copy()
    w = np.maximum(w, 0.0)
    w /= w.sum()
    excess = ev.norms_sq / ev.model.N - a
    free = gamma is None
    gamma = 0.0 if free else gamma
    value = 0.0
    damping, before = 0.0, None  # before: the point ahead of an unchecked step
    for _ in range(iterations):
        cross, post = ev.evaluate(w)
        gains = ev.neg_h - cross
        scores = gains - gamma * excess
        value = float(np.dot(w, scores))
        if before is not None and value < before[2] - _ASCENT_SLACK:
            w, gains, _, post = before
            damping = min(1.0, 4.0 * damping + 1.0 / 16.0)
        else:
            gaps = scores - value
            active = w >= PRUNE_FLOOR
            if np.all(np.abs(gaps[active]) <= _GAIN_TOLERANCE) and \
                    np.all(gaps[~active] <= _GAIN_TOLERANCE):
                break
            damping *= 0.25
        while True:
            if free:
                theta, gamma = _newton_step(post, w, gains, damping, excess)
                if gamma is None or gamma < 0.0:
                    gamma = 0.0
            if not free or gamma == 0.0:
                theta, _ = _newton_step(post, w, gains - gamma * excess, damping)
            theta -= np.dot(w, theta)
            # weights grow linearly, so an atom at the floor can take real mass
            # in one step, and shrink geometrically, so they stay positive; the
            # floor keeps squashed weights recoverable (0.0 would stick forever)
            with np.errstate(over="ignore"):
                w_new = np.maximum(np.where(theta > 0.0, w + np.minimum(w * theta, 1.0),
                                            w * np.exp(theta)), 1e-20)
            w_new /= w_new.sum()
            # a step capped at +1 on every gaining atom renormalizes to the
            # point it started from: that is a failed step too
            still = bool(np.all(np.abs(w_new - w) <= 1e-12 * w))
            if not still or damping >= 1.0:
                break
            damping = min(1.0, 4.0 * damping + 1.0 / 16.0)
        scores = gains - gamma * excess
        value = float(np.dot(w, scores))
        before = (w, gains, value, post) if damping < 1.0 else None
        w = w_new
        if still:
            break
    return w, gamma, value


def optimize_weights(model: ChannelModel, atoms, a: float, gamma: float,
                     cfg: OptimizerConfig) -> np.ndarray:
    """Optimal weights on a fixed support for the power-penalized objective.

    Damped Newton steps on the log weights (_multiplicative_solve) on one
    evaluator; stops when the per-atom gains agree with the objective value
    within _GAIN_TOLERANCE, or when the iteration budget runs out. Always
    returns a simplex point.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not 0.0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")
    atoms = np.atleast_2d(np.asarray(atoms, dtype=complex))
    if atoms.shape[0] == 0:
        raise ValueError("need at least one atom")
    ev = _SupportEvaluator(model, atoms, cfg.mc)
    w, _, _ = _multiplicative_solve(ev, gamma, a, cfg.weight_iterations)
    return w


def _unit_direction(atom: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(atom)
    return np.eye(atom.size, dtype=atom.dtype)[0] if norm == 0.0 else atom / norm


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization on [lo, hi], ten steps; returns the best point seen."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    cache: dict[float, float] = {}

    def F(x):
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    a, b = float(lo), float(hi)
    F(a)
    F(b)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(10):
        if F(c) >= F(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    best = max(cache, key=cache.get)
    return best, cache[best]


def _consolidate(atoms: np.ndarray, weights: np.ndarray):
    """Merge near-duplicate atoms and drop under-floor weights."""
    k = atoms.shape[0]
    order = np.argsort(-weights)
    keep: list[int] = []
    w = weights.copy()
    for i in order:
        merged = False
        for j in keep:
            gap = float(np.sum(np.abs(atoms[i] - atoms[j]) ** 2))
            scale = 1.0 + max(float(np.sum(np.abs(atoms[i]) ** 2)),
                              float(np.sum(np.abs(atoms[j]) ** 2)))
            if gap <= _MERGE_SQ * scale:
                w[j] += w[i]
                merged = True
                break
        if not merged:
            keep.append(i)
    keep_mask = np.zeros(k, dtype=bool)
    keep_mask[keep] = True
    keep_mask &= w >= PRUNE_FLOOR
    if not np.any(keep_mask):
        keep_mask[int(np.argmax(w))] = True
    changed = not np.all(keep_mask) or len(keep) != k
    atoms = atoms[keep_mask]
    w = w[keep_mask]
    return atoms, w / w.sum(), changed


def _move_radii(model, atoms, weights, gamma, a, mc, srs, current_value):
    """Coordinate descent on each atom's squared norm along its own direction.

    Atoms lighter than _MOVE_RESOLUTION are skipped: the Lagrangian is flat in
    their radius, so a golden section would only chase noise. optimize_measure
    places those tail atoms from the KKT scan instead.
    """
    atoms = atoms.copy()
    moved = False
    best_value = current_value
    for i in range(atoms.shape[0]):
        if weights[i] < _MOVE_RESOLUTION:
            continue
        t_i = float(np.sum(np.abs(atoms[i]) ** 2))
        u_i = _unit_direction(atoms[i])
        others = np.delete(atoms, i, axis=0)

        def objective(t):
            cand = math.sqrt(max(t, 0.0)) * u_i
            if others.shape[0]:
                gaps = np.sum(np.abs(others - cand) ** 2, axis=1)
                if np.min(gaps) <= _MERGE_SQ * (1.0 + max(t, 0.0)):
                    return -math.inf
            trial = atoms.copy()
            trial[i] = cand
            ev = _SupportEvaluator(model, trial, mc)
            return ev.lagrangian(weights, gamma, a)

        if t_i > 0.0:
            lo, hi = t_i / 4.0, min(4.0 * t_i, srs)
        else:
            lo, hi = 0.0, max(a * model.N, 1e-3)
        if hi <= lo:
            continue
        t_best, f_best = _golden_max(objective, lo, hi)
        if f_best > best_value + 1e-12 and abs(t_best - t_i) > 1e-9 * (1.0 + t_i):
            atoms[i] = math.sqrt(t_best) * u_i
            best_value = f_best
            moved = True
    return atoms, moved, best_value


def _nearest_violation(points, tol: float, sweep_len: int):
    """Minimum of the nearest run of scan points below -tol, or None.

    points follow radial_scan_grid's direction-major layout: the origin, then
    one sweep of sweep_len increasing squared norms per direction, the same
    norms for every direction. A run is a maximal stretch of consecutive
    violating points along one direction's sweep (the origin leads every
    sweep). The run that starts nearest the origin wins, the first direction
    on ties; within it the most negative point wins, the smaller radius on
    ties. Positions along the sweep, not computed norms, decide the ties.
    """
    origin, rest = points[0], points[1:]
    best = None
    for start in range(0, len(rest), sweep_len):
        sweep = (origin, *rest[start:start + sweep_len])
        run = []
        for j, p in enumerate(sweep):
            if p.value < -tol:
                run.append((p.value, j, p))
            elif run:
                break
        if run and (best is None or run[0][1] < best[0][1]):
            best = run
    return None if best is None else min(best, key=lambda r: r[:2])[2]


def _insertion_candidate(model, atoms, weights, ctx, mc, tol, srs, ppd, decades):
    mu = DiscreteMeasure(atoms, weights)
    grid = radial_scan_grid(model, srs, points_per_decade=ppd, decades=decades,
                            seed=mc.seed)
    report = kkt_scan(model, mu, ctx, grid, mc)
    worst = _nearest_violation(report.points, tol, ppd * decades + 1)
    return None if worst is None else worst.x.copy()


def insert_atom(model: ChannelModel, mu: DiscreteMeasure, ctx: KktContext,
                cfg: OptimizerConfig) -> np.ndarray | None:
    """Scan point proposed as a new atom, or None when the scan is clean.

    Scans radial_scan_grid up to search_radius_sq (48 * a * N by default) and
    takes the nearest run of points below -kkt_tolerance: the one starting at
    the smallest squared norm along any direction's sweep. Returns that run's
    most negative point, the smaller radius on ties. The global minimum is
    not used, because on a truncated scan it often sits at the cap while the
    functional is still falling there.
    """
    srs = cfg.search_radius_sq or _SEARCH_RADIUS_FACTOR * ctx.a * model.N
    return _insertion_candidate(model, mu.atoms, mu.weights, ctx, cfg.mc,
                                cfg.kkt_tolerance, srs, 64, 4)


def _match_power(ev: _SupportEvaluator, a: float, weight_iters: int, w0=None):
    """Weights and power multiplier of the support's budget-constrained optimum.

    One _multiplicative_solve with the multiplier free, on one evaluator.
    Returns (gamma, weights, value, power); gamma = 0 when the budget is slack.
    """
    w, gamma, value = _multiplicative_solve(ev, None, a, weight_iters, w0)
    return gamma, w, value, float(np.dot(w, ev.norms_sq) / ev.model.N)


def _with_atom(atoms, weights, x):
    """The support with x appended at weight 0.02, the others scaled by 0.98."""
    return np.vstack([atoms, x]), np.append(weights * 0.98, 0.02)


def _polish(model, a, atoms, weights, cfg):
    """Full-fidelity power match on the consolidated support, again if it prunes."""
    def match(atoms, weights):
        ev = _SupportEvaluator(model, atoms, cfg.mc)
        return _match_power(ev, a, cfg.weight_iterations, weights)

    atoms, weights, _ = _consolidate(atoms, weights)
    gamma, weights, value, power = match(atoms, weights)
    atoms, weights, pruned = _consolidate(atoms, weights)
    if pruned:
        gamma, weights, value, power = match(atoms, weights)
    return atoms, weights, gamma, value, power


def optimize_measure(model: ChannelModel, constraint: PowerConstraint,
                     cfg: OptimizerConfig) -> Optimum:
    """Search for the capacity-achieving discrete measure at power budget a.

    One search phase adapts the support from {0, sqrt(2aN) e0}: each round
    matches the weights and multiplier to the budget, moves the radii, and
    inserts an atom where a 16-per-decade scan dips below -2 kkt_tolerance,
    until a round changes nothing. On dense channels it draws
    min(max(samples // 4, 20_000), samples) samples per stream, on the base
    seed. The returned Optimum carries the capacity (see Optimum) and a
    full-fidelity KKT scan as the certificate. When that scan shows a
    violation, the atom moved there last, or else the lightest atom the
    mover cannot resolve, is moved to the minimum of the nearest violation
    run (the insert_atom rule); with neither, a new atom goes there while
    the support has room. The power is matched again each time, until the
    scan is clean or the dip is one an atom was already moved to.
    converged=False flags a dirty certificate or a power mismatch rather
    than raising. On dense channels it warns when kkt_tolerance is below
    5e-3 with fewer than 2e5 samples per atom.
    """
    a = constraint.a
    srs = cfg.search_radius_sq or _SEARCH_RADIUS_FACTOR * a * model.N
    if model.iso_var is None and cfg.kkt_tolerance < 5e-3 and cfg.mc.samples < 200_000:
        warnings.warn("kkt_tolerance below 5e-3 normally needs >= 2e5 samples per atom "
                      "on dense channels to keep the standard error under a third "
                      "of the tolerance", stacklevel=2)
    atoms = np.zeros((2, model.N), dtype=complex)
    atoms[1, 0] = math.sqrt(2.0 * a * model.N)
    weights = np.array([0.5, 0.5])
    search_mc = replace(cfg.mc,
                        samples=min(max(cfg.mc.samples // 4, 20_000), cfg.mc.samples))
    # as many rounds as the former fast (outer_iterations) and full-fidelity
    # (max(2, outer_iterations // 3)) search phases had together
    for _ in range(cfg.outer_iterations + max(2, cfg.outer_iterations // 3)):
        ev = _SupportEvaluator(model, atoms, search_mc)
        gamma, weights, value, _ = _match_power(ev, a, cfg.weight_iterations, weights)
        atoms, weights, pruned = _consolidate(atoms, weights)
        atoms, moved, value = _move_radii(model, atoms, weights, gamma, a,
                                          search_mc, srs, value)
        k = atoms.shape[0]
        if k < cfg.max_atoms:
            ctx = KktContext(gamma, a, max(value, 0.0))
            cand = _insertion_candidate(model, atoms, weights, ctx, search_mc,
                                        2.0 * cfg.kkt_tolerance, srs, 16, 3)
            # refuse near-duplicates: local placement is the mover's job
            if cand is not None and np.min(np.sum(np.abs(atoms - cand) ** 2, axis=1)) > \
                    1e-3 * (1.0 + float(np.sum(np.abs(cand) ** 2))):
                atoms, weights = _with_atom(atoms, weights, cand)
        if not (pruned or moved or atoms.shape[0] > k):
            break

    # Final equilibration and certificate at full fidelity.
    ppd, decades = 64, 4
    grid = radial_scan_grid(model, srs, points_per_decade=ppd, decades=decades,
                            seed=cfg.mc.seed)
    dips = []  # scan points an atom was moved to, in order
    while True:
        atoms, weights, gamma, value, power = _polish(model, a, atoms, weights, cfg)
        mu = DiscreteMeasure(atoms, weights)
        ctx = KktContext(gamma, a, max(value, 0.0))
        report = kkt_scan(model, mu, ctx, grid, cfg.mc)
        if not report.violations(cfg.kkt_tolerance):
            break
        dip = _nearest_violation(report.points, cfg.kkt_tolerance,
                                 ppd * decades + 1)
        # the atom placed last keeps following the dip, even once it is
        # heavier than the mover's resolution
        movable = [i for i in range(atoms.shape[0])
                   if dips and np.array_equal(atoms[i], dips[-1])] or \
            list(np.flatnonzero(weights < _MOVE_RESOLUTION))
        if dip is None or any(np.array_equal(dip.x, d) for d in dips) or \
                not (movable or atoms.shape[0] < cfg.max_atoms):
            break
        dips.append(dip.x)
        if movable:
            atoms = atoms.copy()
            atoms[min(movable, key=lambda i: weights[i])] = dip.x
        else:  # nothing light to move: a new atom, as insert_atom would add
            atoms, weights = _with_atom(atoms, weights, dip.x)
    fresh = replace(cfg.mc, seed=derive_seed(cfg.mc.seed, 0xF5E5))
    capacity = _mutual_information(model, mu, fresh)
    residual_ok = max(report.support_residuals()) <= cfg.kkt_tolerance
    scan_ok = not report.violations(cfg.kkt_tolerance)
    power_ok = power <= a * (1.0 + _POWER_TOLERANCE)
    iso, c_max = model.iso_var, model.noise_var + (model.iso_var or 0.0) * float(max(mu.norms_sq))
    tail_ok = iso is None or (gamma > 0.0 and c_max * gamma >= model.M * model.N * iso)
    converged = bool(residual_ok and scan_ok and power_ok and tail_ok)
    return Optimum(measure=mu, capacity_estimate=capacity, gamma=gamma,
                   kkt_report=report, converged=converged)


@dataclass(frozen=True)
class CurvePoint:
    """One capacity-curve sample: budget, Optimum.capacity_estimate, multiplier, flag.

    gamma is Optimum.gamma, the final support's power multiplier; at the
    optimum it is the capacity curve's slope dC/da at this budget.
    """

    a: float
    capacity: McEstimate
    gamma: float
    converged: bool


def capacity_curve(model: ChannelModel, a_grid, cfg: OptimizerConfig) -> list[CurvePoint]:
    """optimize_measure on each budget of a strictly increasing positive grid."""
    a_grid = [float(a) for a in a_grid]
    if not a_grid or any(a <= 0.0 for a in a_grid):
        raise ValueError("a_grid must be nonempty and positive")
    if any(b <= a for a, b in zip(a_grid, a_grid[1:])):
        raise ValueError("a_grid must be strictly increasing")
    points = []
    for i, a in enumerate(a_grid):
        mc = replace(cfg.mc, seed=derive_seed(cfg.mc.seed, 0xCC, i))
        opt = optimize_measure(model, PowerConstraint(a), replace(cfg, mc=mc))
        points.append(CurvePoint(a=a, capacity=opt.capacity_estimate,
                                 gamma=opt.gamma, converged=opt.converged))
    return points
