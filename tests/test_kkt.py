import math

import numpy as np
import pytest

from fading_capacity import (ChannelModel, InputShell, InsufficientMassError,
                             KktContext, McConfig, ScaleOverflowError,
                             SlopeNonPositiveError,
                             certified_pi_bar, conditional_covariance,
                             cross_term, kkt_lower_bound, kkt_scan, kkt_value,
                             lemma1_bound, lemma1_lower_bound,
                             radial_scan_grid, support_radius_bound)
from fading_capacity import DiscreteMeasure, estimate
from fading_capacity.kkt import _kkt_lower_bounds
from conftest import radial_measure, random_model, random_input
from oracles import ScalarRadialOracle

ORACLE = ScalarRadialOracle(1.0, 1.0)
LOG_PI_E = math.log(math.pi) + 1.0


class TestLemma1Bound:
    def test_certified_pi_bar_isotropic_is_exact_max(self, scalar_model):
        shell = InputShell(1.0, 4.0)
        # isotropic: det C = 1 + t, maximized at t = 4
        assert certified_pi_bar(scalar_model, shell) == pytest.approx(5.0)

    def test_log_a_assembly(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=1.0)
        assert bound.pi_bar == pytest.approx(5.0)
        assert bound.log_a == pytest.approx(-math.log(5 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("mass", [math.nan, -0.1, 1.5])
    def test_mass_outside_the_unit_interval_rejected(self, scalar_model, mass):
        # NaN passed the range test, and support_radius_bound then returned inf
        with pytest.raises(ValueError, match="mass must lie in"):
            lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=mass)

    @pytest.mark.parametrize("pi_bar", [math.inf, math.nan, 0.0, -1.0])
    def test_pi_bar_must_be_positive_and_finite(self, scalar_model, pi_bar):
        # inf made log_a -inf, and support_radius_bound then returned inf
        with pytest.raises(ValueError, match="pi_bar must be positive and finite"):
            lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=0.5, pi_bar=pi_bar)

    def test_zero_mass_raises_on_use(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=0.0)
        with pytest.raises(InsufficientMassError):
            lemma1_lower_bound(scalar_model, bound, [1.0 + 0j])

    def test_spot_value(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=1.0,
                             pi_bar=5.0)
        got = lemma1_lower_bound(scalar_model, bound, [1.0 + 0j])
        assert got == pytest.approx(-math.log(5 * math.pi) - 1.0, abs=1e-12)

    def test_affine_decreasing_in_norm(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=0.5)
        v1 = lemma1_lower_bound(scalar_model, bound, [1.0 + 0j])
        v2 = lemma1_lower_bound(scalar_model, bound, [2.0 + 0j])
        assert v2 < v1
        slope = (v2 - v1) / (4.0 - 1.0)
        expected = -scalar_model.M * scalar_model.lambda_max / (
            scalar_model.noise_var + scalar_model.lambda_min * 1.0)
        assert slope == pytest.approx(expected, rel=1e-12)

    def test_cross_term_respects_bound(self, scalar_model):
        # uniform two atoms on the shell boundary carry the full mass
        mu = radial_measure([1.0, 4.0], [0.5, 0.5])
        shell = InputShell(1.0, 4.0)
        bound = lemma1_bound(scalar_model, shell, mass=1.0)
        cfg = McConfig(20_000, seed=44)
        for t_x in (0.5, 1.0, 3.0):
            est = cross_term(scalar_model, mu, [math.sqrt(t_x) + 0j], cfg)
            floor = lemma1_lower_bound(scalar_model, bound,
                                       [math.sqrt(t_x) + 0j])
            assert est.value >= floor - 3 * est.std_error

    def test_cross_term_respects_bound_mimo(self):
        rng = np.random.default_rng(56)
        for trial in range(3):
            model = random_model(rng, 2, 2)
            atoms = np.vstack([random_input(rng, 2, scale=0.8),
                               random_input(rng, 2, scale=1.5)])
            mu = DiscreteMeasure(atoms, [0.5, 0.5])
            lo, hi = sorted(float(np.sum(np.abs(a) ** 2)) for a in atoms)
            shell = InputShell(lo, hi)
            bound = lemma1_bound(model, shell, mass=1.0)
            x = random_input(rng, 2)
            est = cross_term(model, mu, x, McConfig(10_000, seed=trial))
            floor = lemma1_lower_bound(model, bound, x)
            assert est.value >= floor - 3 * est.std_error


class TestKktContext:
    @pytest.mark.parametrize("field", ["gamma", "capacity"])
    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_negative_or_nan_rejected(self, field, bad):
        kwargs = {"gamma": 0.1, "a": 1.0, "capacity": 0.2, field: bad}
        with pytest.raises(ValueError):
            KktContext(**kwargs)

    @pytest.mark.parametrize("field,name", [("gamma", "gamma"), ("a", "power budget"),
                                            ("capacity", "capacity")])
    def test_infinite_field_rejected(self, field, name):
        # gamma 0 with a = inf made every KKT value NaN (0 * inf), capacity inf made
        # every value +inf: either way violations() was empty
        kwargs = {"gamma": 0.1, "a": 1.0, "capacity": 0.2, field: math.inf}
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            KktContext(**kwargs)


class TestKktValue:
    def test_zero_at_point_mass_origin(self, scalar_model):
        mu = DiscreteMeasure.single([0j])
        ctx = KktContext(gamma=0.0, a=1.0, capacity=0.0)
        est = kkt_value(scalar_model, mu, ctx, [0j], McConfig(20_000, seed=3))
        assert abs(est.value) <= 3 * est.std_error + 1e-9

    def test_matches_quadrature_substitution(self, scalar_model):
        ts, ws = [0.0, 5.0], [0.7, 0.3]
        mu = radial_measure(ts, ws)
        ctx = KktContext(gamma=0.2, a=1.0, capacity=0.1)
        x = [math.sqrt(3.0) + 0j]
        est = kkt_value(scalar_model, mu, ctx, x, McConfig(40_000, seed=77))
        cov = conditional_covariance(scalar_model, x)
        exact_part = 0.2 * (3.0 - 1.0) + 0.1 + LOG_PI_E + cov.log_det
        truth = exact_part + ORACLE.cross_term(3.0, ts, ws)
        assert abs(est.value - truth) <= max(3 * est.std_error, 1e-3)

    def test_overflowing_atom_is_typed_error(self, scalar_model):
        with np.errstate(over="ignore"):
            mu = DiscreteMeasure([[0j], [1e200 + 0j]], [0.5, 0.5])
        with pytest.raises(ScaleOverflowError):
            kkt_value(scalar_model, mu, KktContext(0.1, 1.0, 0.2), [1.0 + 0j],
                      McConfig(1000, seed=1))

    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_output_variance_is_typed_error(self, dense):
        # ||x||^2 = 1e308 is a double, but fading variance 10 times it is not
        model = (ChannelModel(1, 2, 1.0, np.diag([10.0, 1.0])) if dense
                 else ChannelModel.isotropic(1, 1, 1.0, 10.0))
        x = np.zeros(model.N, dtype=complex)
        x[0] = 1e154
        mu = DiscreteMeasure.single(np.zeros(model.N, dtype=complex))
        with pytest.raises(ScaleOverflowError):
            kkt_value(model, mu, KktContext(0.1, 1.0, 0.2), x, McConfig(1000, seed=1))


class TestKktLowerBound:
    def test_below_kkt_value(self, scalar_model):
        rng = np.random.default_rng(12)
        for trial in range(5):
            ts = sorted(rng.uniform(0.2, 8.0, size=2))
            mu = radial_measure(ts, [0.6, 0.4])
            shell = InputShell(ts[0], ts[1])
            bound = lemma1_bound(scalar_model, shell, mass=1.0)
            ctx = KktContext(gamma=float(rng.uniform(0, 0.5)), a=1.0,
                             capacity=float(rng.uniform(0, 0.3)))
            x = [math.sqrt(float(rng.uniform(0, 9.0))) + 0j]
            est = kkt_value(scalar_model, mu, ctx, x, McConfig(5000, seed=trial))
            floor = kkt_lower_bound(scalar_model, bound, ctx, x)
            assert floor <= est.value + 3 * est.std_error

    def test_decreasing_along_ray_when_gamma_zero(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=0.5)
        ctx = KktContext(gamma=0.0, a=1.0, capacity=0.1)
        v1 = kkt_lower_bound(scalar_model, bound, ctx, [1.0 + 0j])
        v2 = kkt_lower_bound(scalar_model, bound, ctx, [3.0 + 0j])
        assert v2 < v1

    def test_grows_when_slope_positive(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(9.0, 16.0), mass=0.5)
        ctx = KktContext(gamma=1.0, a=1.0, capacity=0.5)
        # slope = 1 - 1/10 > 0: affine growth dominates
        v_small = kkt_lower_bound(scalar_model, bound, ctx,
                                  [math.sqrt(1e3) + 0j])
        v_big = kkt_lower_bound(scalar_model, bound, ctx,
                                [math.sqrt(1e6) + 0j])
        assert v_big > v_small

    @pytest.mark.parametrize("kind", ["scalar", "iso3x2", "dense2x2"])
    def test_batch_equals_the_one_point_formula(self, scalar_model, kind):
        # the bounds command's batch against the formula taken point by point
        rng = np.random.default_rng(31)
        model = {"scalar": scalar_model,
                 "iso3x2": ChannelModel.isotropic(3, 2, 1.0, 1.0),
                 "dense2x2": random_model(rng, 2, 2)}[kind]
        bound = lemma1_bound(model, InputShell(9.0, 100.0), mass=0.5, pi_bar=1e4)
        ctx = KktContext(gamma=20.0, a=1.0, capacity=0.5)
        xs = [random_input(rng, model.N, scale=s) for s in np.geomspace(1e-3, 1e3, 20)]
        denom = model.noise_var + model.lambda_min * bound.shell.r1_sq
        slope = ctx.gamma / model.N - model.M * model.lambda_max / denom
        want = [float(np.real(np.vdot(x, x))) * slope - ctx.gamma * ctx.a + ctx.capacity
                + model.M * LOG_PI_E + conditional_covariance(model, x).log_det
                + bound.log_a - model.M * model.noise_var / denom for x in xs]
        assert _kkt_lower_bounds(model, bound, ctx, xs).tolist() == want
        assert [kkt_lower_bound(model, bound, ctx, x) for x in xs] == want


class TestSupportRadiusBound:
    def test_slope_non_positive_raises(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(1.0, 4.0), mass=0.5)
        ctx = KktContext(gamma=0.0, a=1.0, capacity=0.0)
        with pytest.raises(SlopeNonPositiveError):
            support_radius_bound(scalar_model, bound, ctx)

    def test_raised_exactly_when_slope_nonpositive(self, scalar_model):
        # slope = gamma - 1/(1 + r1_sq) changes sign at gamma = 0.1
        bound = lemma1_bound(scalar_model, InputShell(9.0, 16.0), mass=0.5)
        for gamma in (0.05, 0.1):
            with pytest.raises(SlopeNonPositiveError):
                support_radius_bound(scalar_model, bound,
                                     KktContext(gamma, 1.0, 0.1))
        r_sq = support_radius_bound(scalar_model, bound,
                                    KktContext(0.11, 1.0, 0.1))
        assert math.isfinite(r_sq) and r_sq >= 0.0

    def test_spot_instance_and_root_consistency(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(9.0, 100.0), mass=0.5,
                             pi_bar=10.0)
        ctx = KktContext(gamma=1.0, a=1.0, capacity=0.5)
        r_sq = support_radius_bound(scalar_model, bound, ctx)
        assert math.isfinite(r_sq)
        # the floored bound (ln det C replaced by M ln noise_var) vanishes at R^2
        x = [math.sqrt(r_sq) + 0j]
        floored = kkt_lower_bound(scalar_model, bound, ctx, x) \
            - conditional_covariance(scalar_model, x).log_det \
            + scalar_model.M * math.log(scalar_model.noise_var)
        assert abs(floored) <= 1e-9

    def test_capacity_shrinks_bound(self, scalar_model):
        bound = lemma1_bound(scalar_model, InputShell(9.0, 16.0), mass=0.5)
        r1 = support_radius_bound(scalar_model, bound, KktContext(1.0, 1.0, 0.1))
        r2 = support_radius_bound(scalar_model, bound, KktContext(1.0, 1.0, 0.4))
        assert r2 < r1

    def test_mass_monotonicity(self, scalar_model):
        shell = InputShell(9.0, 16.0)
        ctx = KktContext(1.0, 1.0, 0.1)
        pi_bar = certified_pi_bar(scalar_model, shell)
        small = lemma1_bound(scalar_model, shell, mass=0.1, pi_bar=pi_bar)
        large = lemma1_bound(scalar_model, shell, mass=0.9, pi_bar=pi_bar)
        assert large.log_a > small.log_a
        assert support_radius_bound(scalar_model, large, ctx) < \
            support_radius_bound(scalar_model, small, ctx)


class TestKktScan:
    def test_report_consistency(self, scalar_model):
        mu = radial_measure([0.0, 5.867], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        grid = [np.array([math.sqrt(t) + 0j]) for t in (0.5, 2.0, 10.0)]
        report = kkt_scan(scalar_model, mu, ctx, grid, McConfig(4000, seed=1))
        values = [p.value for p in report.points + report.support]
        assert report.minimum == min(values)
        assert len(report.support_residuals()) == mu.n_atoms

    def test_near_optimum_scan_is_clean(self, scalar_model):
        # oracle-derived optimum at a=1; residuals and scan stay inside tolerance
        mu = radial_measure([0.0, 5.867], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        grid = [np.array([math.sqrt(t) + 0j]) for t in
                np.linspace(0.05, 12.0, 24)]
        report = kkt_scan(scalar_model, mu, ctx, grid, McConfig(20_000, seed=2))
        assert max(report.support_residuals()) <= 5e-3
        assert not report.violations(5e-3)

    def test_perturbed_optimum_is_flagged(self, scalar_model):
        # move the outer atom out by 10%: either a scan dip or a support
        # residual must appear
        mu = radial_measure([0.0, 5.867 * 1.1], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        grid = [np.array([math.sqrt(t) + 0j]) for t in
                np.linspace(0.05, 12.0, 24)]
        report = kkt_scan(scalar_model, mu, ctx, grid, McConfig(20_000, seed=2))
        flagged = bool(report.violations()) or \
            max(report.support_residuals()) > 5e-3
        assert flagged

    @pytest.mark.parametrize("dense", [False, True])
    def test_points_equal_kkt_value(self, scalar_model, dense, small_batches):
        # one law object serves the whole scan; the origin atom, the cross
        # stream and the support atoms must each see their own stream
        if dense:
            model = random_model(np.random.default_rng(3), 2, 2)
            atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
            mu = DiscreteMeasure(atoms, [0.5, 0.3, 0.2])
        else:
            model = scalar_model
            mu = radial_measure([0.0, 5.867], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        cfg = McConfig(3000, seed=5)
        small_batches(1000)
        grid = radial_scan_grid(model, 12.0, points_per_decade=4, decades=2,
                                n_directions=2, seed=5)
        grid.insert(3, mu.atoms[1])
        report = kkt_scan(model, mu, ctx, grid, cfg)
        for p in report.points + report.support:
            est = kkt_value(model, mu, ctx, p.x, cfg)
            assert (p.value, p.std_error) == (est.value, est.std_error)

    @pytest.mark.parametrize("case", ["zero-weight atom", "ragged batch", "shuffled grid"])
    def test_dense_scan_equals_one_point_calls(self, case, small_batches):
        # inputs that share a stream share one pass and its buffers; each value
        # must still equal the one-input evaluations bit for bit
        model = random_model(np.random.default_rng(3), 2, 2)
        atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        weights = [0.5, 0.0, 0.5] if case == "zero-weight atom" else [0.5, 0.3, 0.2]
        mu = DiscreteMeasure(atoms, weights)
        ctx = KktContext(0.113480, 1.0, 0.195547)
        cfg = McConfig(2500, seed=5)
        if case == "ragged batch":
            small_batches(1000)
        grid = radial_scan_grid(model, 12.0, points_per_decade=4, decades=2,
                                n_directions=2, seed=5)
        grid.insert(3, atoms[1])
        if case == "shuffled grid":
            grid = [grid[i] for i in np.random.default_rng(8).permutation(len(grid))]
        report = kkt_scan(model, mu, ctx, grid, cfg)
        for p in report.points + report.support:
            est = kkt_value(model, mu, ctx, p.x, cfg)
            assert (p.value, p.std_error) == (est.value, est.std_error)
            cross = cross_term(model, mu, p.x, cfg)
            log_det = conditional_covariance(model, p.x).log_det
            value = (ctx.gamma * (p.norm_sq / model.N - ctx.a) + ctx.capacity
                     + model.M * LOG_PI_E + log_det + cross.value)
            assert (p.value, p.std_error) == (value, cross.std_error)

    def test_dense_scan_draws_each_stream_once(self, monkeypatch, cold_draws):
        # the grid's origin is atom 0: evaluated in grid order, stream 0 would
        # be drawn, then the cross stream, then stream 0 again
        model = random_model(np.random.default_rng(3), 2, 2)
        atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        mu = DiscreteMeasure(atoms, [0.5, 0.3, 0.2])
        grid = radial_scan_grid(model, 12.0, points_per_decade=4, decades=2,
                                n_directions=2, seed=5)
        seeds = []
        draw = estimate._complex_standard_normals
        monkeypatch.setattr(estimate, "_complex_standard_normals",
                            lambda seed, *a: seeds.append(seed) or draw(seed, *a))
        kkt_scan(model, mu, KktContext(0.1, 1.0, 0.2), grid, McConfig(1000, seed=5))
        assert len(seeds) == mu.n_atoms + 1 == len(set(seeds))

    def test_points_are_immutable_named_tuples(self, scalar_model):
        mu = radial_measure([0.0, 5.867], [0.8296, 0.1704])
        ctx = KktContext(0.113480, 1.0, 0.195547)
        grid = [np.array([math.sqrt(t) + 0j]) for t in (0.25, 4.0, 9.0)]
        report = kkt_scan(scalar_model, mu, ctx, grid, McConfig(1000, seed=1))
        p = report.points[1]
        assert isinstance(p, tuple) and p._fields == ("x", "norm_sq", "value", "std_error")
        for field in p._fields:
            with pytest.raises(AttributeError):
                setattr(p, field, 0.0)
        est = kkt_value(scalar_model, mu, ctx, grid[1], McConfig(1000, seed=1))
        assert np.array_equal(p.x, grid[1])
        assert (p.norm_sq, p.value, p.std_error) == (4.0, est.value, est.std_error)
        assert repr(p) == f"KktPoint(x=array([2.+0.j]), norm_sq=4.0, value={est.value!r}, " \
                          "std_error=0.0)"

    @pytest.mark.parametrize("dense", [False, True])
    def test_malformed_grid_point_rejected(self, scalar_model, dense):
        model = random_model(np.random.default_rng(3), 2, 2) if dense else scalar_model
        mu = DiscreteMeasure.single(np.zeros(model.N, dtype=complex))
        ctx, cfg = KktContext(0.1, 1.0, 0.2), McConfig(1000, seed=1)
        grid = radial_scan_grid(model, 4.0, points_per_decade=2, decades=1, n_directions=1)
        nan = grid[2].copy()
        nan[-1] = complex(math.nan, 0.0)
        for bad in (np.zeros(model.N + 1, dtype=complex), nan):
            with pytest.raises(ValueError):
                kkt_scan(model, mu, ctx, grid[:2] + [bad] + grid[2:], cfg)
        with pytest.raises(ValueError):  # every point of the wrong dimension
            kkt_scan(model, mu, ctx, [np.zeros(model.N + 1)] * 3, cfg)

    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_point_is_typed_error(self, scalar_model, dense):
        # ||x||^2 = 1e400 is past double range
        model = random_model(np.random.default_rng(3), 2, 2) if dense else scalar_model
        mu = DiscreteMeasure.single(np.zeros(model.N, dtype=complex))
        far = np.zeros(model.N, dtype=complex)
        far[0] = 1e200
        with pytest.raises(ScaleOverflowError):
            kkt_scan(model, mu, KktContext(0.1, 1.0, 0.2), [far], McConfig(1000, seed=1))

    def test_empty_grid_rejected(self, scalar_model):
        mu = DiscreteMeasure.single([0j])
        with pytest.raises(ValueError):
            kkt_scan(scalar_model, mu, KktContext(0.0, 1.0, 0.0), [],
                     McConfig(1000, seed=1))


class TestScanGrid:
    def test_isotropic_single_direction(self, scalar_model):
        grid = radial_scan_grid(scalar_model, 16.0, points_per_decade=8,
                                decades=2)
        assert np.allclose(grid[0], 0.0)
        assert len(grid) == 1 + (8 * 2 + 1)
        norms = [float(np.sum(np.abs(x) ** 2)) for x in grid[1:]]
        assert norms[0] == pytest.approx(16.0 * 1e-2)
        assert norms[-1] == pytest.approx(16.0)

    def test_dense_gets_extra_directions(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 2)
        grid = radial_scan_grid(model, 4.0, points_per_decade=4, decades=1,
                                n_directions=3, seed=5)
        assert len(grid) == 1 + 4 * (4 * 1 + 1)

    @pytest.mark.parametrize("field, bad", [
        ("points_per_decade", 0), ("points_per_decade", 2.5), ("decades", 0),
        ("decades", 2.5), ("n_directions", -1), ("n_directions", 2.5)])
    def test_counts_must_be_integers(self, field, bad):
        # 0 gave a one-point sweep, 2.5 an untyped TypeError
        model = random_model(np.random.default_rng(3), 2, 2)
        with pytest.raises(ValueError, match=f"{field} must be a"):
            radial_scan_grid(model, 4.0, **{field: bad})

    @pytest.mark.parametrize("dense", [False, True])
    def test_seed_outside_64_bits_rejected(self, scalar_model, dense):
        # on dense channels -1 drew the directions of 2^64 - 1; isotropic grids read no
        # seed but check it all the same
        model = random_model(np.random.default_rng(3), 2, 2) if dense else scalar_model
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
                radial_scan_grid(model, 4.0, points_per_decade=2, decades=1, seed=seed)
        grids = [radial_scan_grid(model, 4.0, points_per_decade=2, decades=1, n_directions=2,
                                  seed=seed) for seed in (0, (1 << 64) - 1)]
        assert len(grids[0]) == len(grids[1]) == (1 + 3 * 3 if dense else 1 + 3)
        assert np.array_equal(grids[0], grids[1]) == (not dense)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_max_norm_sq_must_be_positive_and_finite(self, scalar_model, bad):
        # inf warned (inf - inf in geomspace) and gave points inf+nanj, nan+nanj, ...
        with pytest.raises(ValueError, match="max_norm_sq must be positive and finite"):
            radial_scan_grid(scalar_model, bad)
