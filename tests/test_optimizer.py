import math
import warnings

import numpy as np
import pytest

from fading_capacity import (ChannelModel, DiscreteMeasure, KktContext, McConfig, estimate,
                             OptimizerConfig, PowerConstraint, average_power,
                             derive_seed, insert_atom, kkt_scan, kkt_value, mutual_information,
                             optimize_measure, optimize_weights,
                             radial_scan_grid)
from fading_capacity.estimate import _ConditionalLaws
from fading_capacity.optimizer import (_POWER_TOLERANCE, _SupportEvaluator,
                                       _insertion_candidate, _match_power)
from conftest import ORACLE_OPTIMA, radial_measure, random_model
from oracles import ScalarRadialOracle

ORACLE = ScalarRadialOracle(1.0, 1.0)


def small_config(seed, **kw):
    defaults = dict(mc=McConfig(samples=20_000, seed=seed), max_atoms=4,
                    outer_iterations=4, weight_iterations=200)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestOptimizeWeights:
    def test_single_atom(self, scalar_model):
        w = optimize_weights(scalar_model, [[1.0 + 0j]], a=1.0, gamma=0.1,
                             cfg=small_config(1))
        assert np.array_equal(w, [1.0])

    def test_same_law_atoms_leave_information_flat(self, scalar_model):
        # x and -x induce identical conditional laws; any split is optimal
        atoms = [[1.5 + 0j], [-1.5 + 0j]]
        cfg = small_config(2)
        w = optimize_weights(scalar_model, atoms, a=1.0, gamma=0.0, cfg=cfg)
        mu_opt = DiscreteMeasure(atoms, w)
        mu_half = DiscreteMeasure(atoms, [0.5, 0.5])
        a = mutual_information(scalar_model, mu_opt, cfg.mc)
        b = mutual_information(scalar_model, mu_half, cfg.mc)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_matches_grid_search_oracle(self, scalar_model):
        atoms = [[0j], [math.sqrt(10.0) + 0j]]
        w = optimize_weights(scalar_model, atoms, a=1.0, gamma=0.0,
                             cfg=small_config(3))
        w_star = ORACLE.best_two_atom_weight(10.0, gamma=0.0)
        assert abs(w[1] - w_star) <= 0.02

    @pytest.mark.parametrize("a", [0.1, 4.0])
    def test_oracle_support_is_equalized(self, scalar_model, a):
        # at the oracle multiplier every atom of real weight must sit at
        # KKT = 0 within kkt_tolerance; the isotropic scan is exact (SE 0)
        ts, _, gamma, _ = ORACLE_OPTIMA[a]
        atoms = [[math.sqrt(t) + 0j] for t in ts]
        cfg = small_config(31)
        w = optimize_weights(scalar_model, atoms, a, gamma, cfg)
        mu = DiscreteMeasure(atoms, w)
        cap = mutual_information(scalar_model, mu, cfg.mc)
        ctx = KktContext(gamma, a, max(cap.value, 0.0))
        grid = radial_scan_grid(scalar_model, 48.0 * a, seed=cfg.mc.seed)
        report = kkt_scan(scalar_model, mu, ctx, grid, cfg.mc)
        assert all(p.std_error == 0.0 for p in report.points + report.support)
        for wi, p in zip(w, report.support):
            if wi > 1e-6:
                assert abs(p.value) <= cfg.kkt_tolerance

    @pytest.mark.parametrize("gamma", [1.0, 8.0])
    def test_near_duplicate_tail_does_not_stall(self, scalar_model, gamma):
        # on the a = 1 optimum's support the undamped step caps every gaining
        # atom at +1 and renormalizes to where it started; at a steep
        # multiplier all mass belongs on the origin
        ts = ORACLE_OPTIMA[1.0][0]
        w = optimize_weights(scalar_model, [[math.sqrt(t) + 0j] for t in ts],
                             a=1.0, gamma=gamma, cfg=small_config(31))
        assert w[0] >= 0.99

    def test_returns_simplex_point(self, scalar_model):
        w = optimize_weights(scalar_model, [[0j], [2.0 + 0j], [4.0 + 0j]],
                             a=0.5, gamma=2.0, cfg=small_config(4))
        assert np.all(w >= 0.0)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field, gamma, a", [
        ("gamma", math.nan, 1.0), ("gamma", -1.0, 1.0), ("gamma", math.inf, 1.0),
        ("a", 0.1, math.nan), ("a", 0.1, 0.0), ("a", 0.1, math.inf)])
    def test_multiplier_and_budget_are_checked(self, scalar_model, field, gamma, a):
        # a NaN returned [nan, nan], and gamma = -1 was solved for
        with pytest.raises(ValueError, match=f"^{field} must be"):
            optimize_weights(scalar_model, [[0j], [2.0 + 0j]], a=a, gamma=gamma,
                             cfg=small_config(4))


class TestOptimizerConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_atoms", 1.5), ("outer_iterations", 0), ("weight_iterations", True),
        ("max_atoms", math.nan)])
    def test_budgets_are_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_search_radius_is_positive_and_finite(self, value):
        # inf constructed, then failed inside radial_scan_grid
        with pytest.raises(ValueError, match="search_radius_sq must be positive and finite"):
            OptimizerConfig(search_radius_sq=value)

    def test_infinite_kkt_tolerance_stays_legal(self):
        assert OptimizerConfig(kkt_tolerance=math.inf).kkt_tolerance == math.inf


class TestInsertAtom:
    def test_infinite_tolerance_returns_none(self, scalar_model):
        mu = radial_measure([0.0, 5.867], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        cfg = small_config(5, kkt_tolerance=math.inf, search_radius_sq=16.0)
        assert insert_atom(scalar_model, mu, ctx, cfg) is None

    def test_missing_zero_atom_is_found(self, scalar_model):
        # low-power setting with all mass away from the origin: the scan must
        # propose a point near zero
        mu = radial_measure([0.8], [1.0])
        mi = mutual_information(scalar_model, mu, McConfig(20_000, seed=6))
        ctx = KktContext(gamma=0.05, a=0.1, capacity=max(mi.value, 0.0))
        cfg = small_config(6, search_radius_sq=4.0)
        x = insert_atom(scalar_model, mu, ctx, cfg)
        assert x is not None
        assert float(np.sum(np.abs(x) ** 2)) <= 0.2

    def test_clean_tail_dip_detected(self, scalar_model):
        # near-optimal two-atom measure: the scan must flag the far region
        mu = radial_measure([0.0, 5.867], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        cfg = small_config(7, search_radius_sq=48.0)
        x = insert_atom(scalar_model, mu, ctx, cfg)
        assert x is not None
        assert float(np.sum(np.abs(x) ** 2)) >= 25.0

    def test_dense_channel_takes_first_run_along_a_sweep(self):
        # the dense-channel grid is the origin, then one sweep of increasing
        # norms per direction; the proposal must be the minimum of the first
        # violation run along its own sweep, no sweep may start violating
        # nearer the origin, and the global minimum (at the cap) is not taken
        model = random_model(np.random.default_rng(3), 2, 2)
        mu = DiscreteMeasure([[0j, 0j], [math.sqrt(2.0) + 0j, 0j]], [0.8, 0.2])
        mc = McConfig(2000, seed=6)
        mi = mutual_information(model, mu, mc)
        ctx = KktContext(gamma=1.0, a=0.1, capacity=max(mi.value, 0.0))
        tol, cap, ppd, decades = 5e-3, 20.0, 8, 2
        x = _insertion_candidate(model, mu.atoms, mu.weights, ctx, mc, tol,
                                 cap, ppd, decades)
        grid = radial_scan_grid(model, cap, points_per_decade=ppd,
                                decades=decades, seed=mc.seed)
        values = np.array([p.value for p in
                           kkt_scan(model, mu, ctx, grid, mc).points])
        n = ppd * decades + 1
        sweeps = [np.r_[0, 1 + d + np.arange(n)] for d in range(0, len(grid) - 1, n)]

        def first_run(sweep):
            bad = values[sweep] < -tol
            if not bad.any():
                return None
            start = int(np.argmax(bad))
            stop = start + 1
            while stop < len(sweep) and bad[stop]:
                stop += 1
            return start, sweep[start:stop]

        runs = [first_run(s) for s in sweeps]
        j = next(i for i, g in enumerate(grid) if np.array_equal(g, x))
        assert j > 0
        start, run = runs[(j - 1) // n]
        assert j in run
        assert values[j] == values[run].min()
        assert start == min(r[0] for r in runs if r is not None)
        assert values.min() < values[j] < -tol
        assert float(np.sum(np.abs(x) ** 2)) < cap


class TestSupportEvaluator:
    @pytest.mark.parametrize("dense", [False, True])
    def test_cross_means_match_stream_stats(self, scalar_model, dense, small_batches):
        if dense:
            model = random_model(np.random.default_rng(3), 2, 2)
            atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        else:
            model = scalar_model
            atoms = np.array([[0j], [math.sqrt(5.867) + 0j], [6.5 + 0j]])
        w = np.array([0.6, 0.4, 0.0])
        mc = McConfig(3000, seed=6)
        small_batches(1000)
        got = _SupportEvaluator(model, atoms, mc).cross_means(w)
        laws = _ConditionalLaws(model, atoms)
        for i in range(atoms.shape[0]):
            if dense:  # the factors from a fresh factorization of the atom
                assert got[i] == laws.stream_stats(atoms[i:i + 1], w, mc, i)[0][0]
            else:  # the radial quadrature kkt_value takes on isotropic channels
                assert got[i] == laws.cross_quadratures(laws.scalar_var[i:i + 1], w)[0]

    @pytest.mark.parametrize("dense,m", [(False, 1), (True, 1), (False, 3)],
                             ids=["False", "True", "iso-M3"])
    def test_evaluate_returns_the_cross_means(self, scalar_model, dense, m, small_batches):
        if dense or m > 1:
            model = (random_model(np.random.default_rng(3), 2, 2) if dense
                     else ChannelModel.isotropic(m, 2, 0.5, 2.0))
            atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        else:
            model = scalar_model
            atoms = np.array([[0j], [math.sqrt(5.867) + 0j], [6.5 + 0j]])
        small_batches(1000)
        ev = _SupportEvaluator(model, atoms, McConfig(3000, seed=6))
        for w in (np.array([0.6, 0.4, 0.0]), np.array([0.6, 0.3, 0.1])):
            assert ev.evaluate(w)[0].tolist() == ev.cross_means(w).tolist()

    def test_evaluate_draws_each_atom_stream_once(self, monkeypatch, cold_draws):
        # with no stream cached, the evaluator holds the k streams it took on
        # its first call; a weight solve calls evaluate hundreds of times
        model = random_model(np.random.default_rng(3), 2, 2)
        atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", 0)
        seeds = []
        draw = estimate._complex_standard_normals
        monkeypatch.setattr(estimate, "_complex_standard_normals",
                            lambda seed, *a: seeds.append(seed) or draw(seed, *a))
        mc = McConfig(3000, seed=6)
        ev = _SupportEvaluator(model, atoms, mc)
        first = ev.evaluate(np.array([0.6, 0.3, 0.1]))
        for w in (np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.2, 0.6]),
                  np.array([0.6, 0.4, 0.0]), np.array([0.6, 0.3, 0.1])):
            ev.evaluate(w)
        assert seeds == [derive_seed(mc.seed, i, 0) for i in range(3)] and not cold_draws
        again = ev.evaluate(np.array([0.6, 0.3, 0.1]))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    @pytest.mark.parametrize("dense", [False, True])
    def test_posteriors_are_the_cross_means_jacobian(self, scalar_model, dense, small_batches):
        # P_ij = w_j d cross_i / d w_j, and each row of P sums to 1
        if dense:
            model = random_model(np.random.default_rng(3), 2, 2)
            atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        else:
            model = scalar_model
            atoms = np.array([[0j], [math.sqrt(5.867) + 0j], [6.5 + 0j]])
        w = np.array([0.6, 0.3, 0.1])
        small_batches(1000)
        ev = _SupportEvaluator(model, atoms, McConfig(3000, seed=6))
        post = ev.evaluate(w)[1]
        np.testing.assert_allclose(post.sum(axis=1), 1.0, rtol=1e-12)
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            slope = (ev.cross_means(w + step) - ev.cross_means(w - step)) / (2 * h)
            np.testing.assert_allclose(slope * w[j], post[:, j], rtol=1e-6, atol=1e-9)


class TestMatchPower:
    def test_inactive_budget_gives_zero_gamma(self, scalar_model):
        atoms = np.array([[0j], [1.0 + 0j]])
        ev = _SupportEvaluator(scalar_model, atoms, McConfig(5000, seed=8))
        cfg = small_config(8)
        gamma, w, value, power = _match_power(ev, a=10.0, weight_iters=100)
        assert gamma == 0.0
        assert power <= 10.0

    def test_power_matched_when_binding(self, scalar_model):
        atoms = np.array([[0j], [math.sqrt(8.0) + 0j]])
        ev = _SupportEvaluator(scalar_model, atoms, McConfig(10_000, seed=9))
        gamma, w, value, power = _match_power(ev, a=1.0, weight_iters=200)
        assert gamma > 0.0
        assert abs(power - 1.0) <= 1.0 * _POWER_TOLERANCE

    @pytest.mark.parametrize("a", sorted(ORACLE_OPTIMA))
    def test_cold_start_recovers_oracle_multiplier(self, scalar_model, a):
        # the multiplier is dC/da: it must match the oracle's to the 1e-4
        # the benchmark's oracle check allows, with the budget met exactly
        ts, _, gamma_star, _ = ORACLE_OPTIMA[a]
        atoms = np.array([[math.sqrt(t) + 0j] for t in ts])
        ev = _SupportEvaluator(scalar_model, atoms, McConfig(20_000, seed=31))
        gamma, w, value, power = _match_power(ev, a=a, weight_iters=200)
        assert abs(gamma - gamma_star) <= 1e-4 * gamma_star
        assert abs(power - a) <= 1e-9 * a


class TestOptimizeMeasure:
    def test_vanishing_power_collapses_to_origin(self, scalar_model):
        cfg = small_config(10, max_atoms=3, outer_iterations=3)
        opt = optimize_measure(scalar_model, PowerConstraint(1e-4), cfg)
        assert abs(opt.capacity_estimate.value) <= max(
            3 * opt.capacity_estimate.std_error, 5e-3)
        heaviest = int(np.argmax(opt.measure.weights))
        assert opt.measure.norms_sq[heaviest] <= 1e-3
        assert opt.measure.weights[heaviest] >= 0.9

    def test_feasibility_and_certificate_flags(self, scalar_model):
        cfg = small_config(11)
        opt = optimize_measure(scalar_model, PowerConstraint(1.0), cfg)
        assert average_power(opt.measure) <= 1.0 * (1 + _POWER_TOLERANCE)
        if opt.converged:
            assert not opt.kkt_report.violations(cfg.kkt_tolerance)
            assert max(opt.kkt_report.support_residuals()) <= cfg.kkt_tolerance

    def test_gamma_positive_when_constraint_binds(self, scalar_model):
        cfg = small_config(12)
        opt = optimize_measure(scalar_model, PowerConstraint(1.0), cfg)
        assert opt.gamma > 0.0

    @pytest.mark.parametrize("a", [0.01, 0.5])
    def test_open_tail_is_not_converged(self, scalar_model, a):
        # the scan, the support residuals and the power all pass, but the outermost
        # atom's variance leaves c_max gamma < M N iso: KKT falls like
        # (gamma - 1/c_max) ||x||^2 beyond the scan cap
        cfg = small_config(7)
        opt = optimize_measure(scalar_model, PowerConstraint(a), cfg)
        report = opt.kkt_report
        assert not report.violations(cfg.kkt_tolerance)
        assert max(report.support_residuals()) <= cfg.kkt_tolerance
        assert average_power(opt.measure) <= a * (1 + _POWER_TOLERANCE)
        c_max = 1.0 + float(np.max(opt.measure.norms_sq))
        assert 0.0 < opt.gamma < 1.0 / c_max
        ctx = KktContext(opt.gamma, a, opt.capacity_estimate.value)
        far = kkt_value(scalar_model, opt.measure, ctx, [100.0 + 0j], cfg.mc)
        assert far.value < -cfg.kkt_tolerance
        assert not opt.converged

    def test_deterministic(self, scalar_model):
        cfg = small_config(13, max_atoms=3, outer_iterations=2)
        a = optimize_measure(scalar_model, PowerConstraint(1.0), cfg)
        b = optimize_measure(scalar_model, PowerConstraint(1.0), cfg)
        assert a.gamma == b.gamma
        assert np.array_equal(a.measure.atoms, b.measure.atoms)
        assert np.array_equal(a.measure.weights, b.measure.weights)
        assert a.capacity_estimate == b.capacity_estimate

    def test_isotropic_capacity_is_the_exact_information(self, scalar_model):
        cfg = small_config(13, max_atoms=3, outer_iterations=2)
        opt = optimize_measure(scalar_model, PowerConstraint(1.0), cfg)
        mu = opt.measure
        ev = _SupportEvaluator(scalar_model, mu.atoms, cfg.mc)
        assert opt.capacity_estimate.value == ev.mutual_information(mu.weights)
        assert opt.capacity_estimate.std_error == 0.0
        assert opt.capacity_estimate.samples == 0

    def test_dense_run_is_deterministic_and_feasible(self):
        # a full dense run: Monte Carlo search, certificate scan and estimate
        model = random_model(np.random.default_rng(3), 2, 2)
        cfg = OptimizerConfig(mc=McConfig(4000, seed=7), max_atoms=3, outer_iterations=1,
                              weight_iterations=200, kkt_tolerance=0.02)
        a = optimize_measure(model, PowerConstraint(1.0), cfg)
        b = optimize_measure(model, PowerConstraint(1.0), cfg)
        assert a.gamma == b.gamma and a.converged == b.converged
        assert np.array_equal(a.measure.atoms, b.measure.atoms)
        assert np.array_equal(a.measure.weights, b.measure.weights)
        assert a.capacity_estimate == b.capacity_estimate
        assert [p.value for p in a.kkt_report.points] == \
            [p.value for p in b.kkt_report.points]
        assert a.capacity_estimate.std_error > 0.0
        # the capacity is the Monte Carlo estimate on a fresh seed
        fresh = McConfig(4000, seed=derive_seed(7, 0xF5E5))
        assert a.capacity_estimate == mutual_information(model, a.measure, fresh)
        assert average_power(a.measure) <= 1.0 * (1 + _POWER_TOLERANCE)

    def test_sample_warning_only_on_dense_channels(self, scalar_model):
        # isotropic scans are quadrature (SE 0), so few samples are fine there
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            cfg = small_config(18, kkt_tolerance=1e-3, max_atoms=2, outer_iterations=1)
            optimize_measure(scalar_model, PowerConstraint(1.0), cfg)
        dense = random_model(np.random.default_rng(3), 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # stop at the warning
            with pytest.raises(UserWarning, match="kkt_tolerance below 5e-3"):
                optimize_measure(dense, PowerConstraint(1.0), cfg)


class TestCapacityCurve:
    def test_certifies_low_middle_and_high_budgets(self, scalar_model):
        from fading_capacity import capacity_curve
        points = capacity_curve(scalar_model, [0.1, 1.0, 4.0], small_config(302))
        assert [p.converged for p in points] == [True, True, True]


class TestCapacityCurveValidation:
    def test_grid_must_increase(self, scalar_model):
        from fading_capacity import capacity_curve
        with pytest.raises(ValueError):
            capacity_curve(scalar_model, [1.0, 1.0], small_config(16))
        with pytest.raises(ValueError):
            capacity_curve(scalar_model, [], small_config(17))
