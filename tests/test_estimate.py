import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, logsumexp

from fading_capacity import (ChannelModel, DiscreteMeasure,
                             InvalidCovarianceError, McConfig, McEstimate,
                             NotConvergedError, OutputShell, ScaleOverflowError,
                             chi_square_tail,
                             conditional_covariance, conditional_entropy,
                             cross_term, derive_seed, log_chi_square_tail,
                             mutual_information, radial_scan_grid,
                             shell_probability)
from fading_capacity.channel import _complex_standard_normals, _conditional_covariances
from fading_capacity.estimate import (_TAIL_MASS, _ConditionalLaws, _gamma_quantile,
                                      _mutual_information, _shell_probabilities,
                                      _stratified_radii_sq, _weighted_mix)
from conftest import ORACLE_OPTIMA, radial_measure, random_model, random_input
from oracles import ScalarRadialOracle

ORACLE = ScalarRadialOracle(1.0, 1.0)


class TestConfig:
    def test_sample_floor(self):
        with pytest.raises(ValueError):
            McConfig(samples=50, seed=0)

    def test_batch_bounds(self):
        with pytest.raises(ValueError):
            McConfig(samples=1000, seed=0, batch=2000)

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert derive_seed(7, 1) != derive_seed(8, 1)


class TestGammaTails:
    def test_endpoints(self):
        assert chi_square_tail(0.0, 3) == pytest.approx(1.0)
        assert chi_square_tail(math.inf, 3) == 0.0

    def test_matches_finite_sum(self):
        for m in (1, 2, 4):
            for t in (0.3, 1.0, 7.5):
                direct = math.exp(-t) * sum(t ** k / math.factorial(k)
                                            for k in range(m))
                assert chi_square_tail(t, m) == pytest.approx(direct, rel=1e-12)

    def test_log_version_consistency(self):
        for m in (1, 3):
            for t in (0.5, 4.0, 40.0):
                assert log_chi_square_tail(math.log(t), m) == pytest.approx(
                    math.log(chi_square_tail(t, m)), rel=1e-10)
        assert log_chi_square_tail(-math.inf, 2) == 0.0
        assert log_chi_square_tail(800.0, 2) == -math.inf

    @pytest.mark.parametrize("t", [1e-3, 0.5, 4.0, 40.0])
    def test_equal_scipy_bit_for_bit(self, t):
        # scipy.special is imported inside the call; the values are its own
        assert chi_square_tail(t, 3) == float(gammaincc(3, t))
        log_t = math.log(t)
        assert log_chi_square_tail(log_t, 3) == math.log(gammaincc(3, math.exp(log_t)))

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            chi_square_tail(math.nan, 3)
        with pytest.raises(ValueError):
            chi_square_tail(-1.0, 3)

    def test_nan_log_threshold_rejected(self):
        with pytest.raises(ValueError):
            log_chi_square_tail(math.nan, 3)


class TestMutualInformation:
    def test_point_mass_has_zero_information(self, scalar_model):
        mu = DiscreteMeasure.single([1.5 + 0j])
        est = mutual_information(scalar_model, mu, McConfig(2000, seed=3))
        assert abs(est.value) <= max(3 * est.std_error, 1e-9)

    def test_two_atom_matches_radial_quadrature(self, scalar_model):
        mu = radial_measure([0.0, 10.0], [0.5, 0.5])
        est = mutual_information(scalar_model, mu, McConfig(40_000, seed=21))
        truth = ORACLE.mutual_information([0.0, 10.0], [0.5, 0.5])
        assert abs(est.value - truth) <= max(3 * est.std_error, 1e-3)

    def test_unitary_rotation_invariance_isotropic(self):
        model = ChannelModel.isotropic(2, 2, 1.0, 1.0)
        rng = np.random.default_rng(2)
        atoms = np.vstack([np.zeros(2, complex), random_input(rng, 2)])
        mu = DiscreteMeasure(atoms, [0.5, 0.5])
        # norm-preserving rotation with a common seed
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        mu2 = DiscreteMeasure(atoms @ q.T, [0.5, 0.5])
        cfg = McConfig(5000, seed=11)
        a = mutual_information(model, mu, cfg)
        b = mutual_information(model, mu2, cfg)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_nonnegative_up_to_noise(self, scalar_model):
        rng = np.random.default_rng(31)
        for trial in range(3):
            ts = rng.uniform(0, 6, size=3)
            mu = radial_measure(ts, rng.dirichlet(np.ones(3)))
            est = mutual_information(scalar_model, mu, McConfig(5000, seed=trial))
            assert est.value >= -3 * est.std_error

    def test_decomposition_identity_is_exact(self, scalar_model):
        mu = radial_measure([0.0, 3.0, 8.0], [0.5, 0.3, 0.2])
        cfg = McConfig(4000, seed=13)
        est = mutual_information(scalar_model, mu, cfg)
        neg_h = np.array([-conditional_entropy(scalar_model, a) for a in mu.atoms])
        crosses = np.array([cross_term(scalar_model, mu, a, cfg).value
                            for a in mu.atoms])
        rebuilt = float(np.dot(mu.weights, neg_h) - np.dot(mu.weights, crosses))
        assert est.value == rebuilt  # bit-identical shared streams

    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_atom_is_typed_error(self, scalar_model, dense):
        # an atom with ||x||^2 = 1e400, past double range
        model = random_model(np.random.default_rng(3), 2, 2) if dense else scalar_model
        atoms = np.zeros((2, model.N), dtype=complex)
        atoms[1, 0] = 1e200
        with np.errstate(over="ignore"):
            mu = DiscreteMeasure(atoms, [0.5, 0.5])
        with pytest.raises(ScaleOverflowError):
            mutual_information(model, mu, McConfig(1000, seed=1))

    @pytest.mark.parametrize("estimator", [mutual_information, _mutual_information])
    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_output_variance_is_typed_error(self, estimator, dense):
        # ||x||^2 = 1e308 is a double, but fading variance 10 times it is not
        model = (ChannelModel(1, 2, 1.0, np.diag([10.0, 1.0])) if dense
                 else ChannelModel.isotropic(1, 1, 1.0, 10.0))
        atoms = np.zeros((2, model.N), dtype=complex)
        atoms[1, 0] = 1e154
        mu = DiscreteMeasure(atoms, [0.5, 0.5])
        with pytest.raises(ScaleOverflowError):
            estimator(model, mu, McConfig(1000, seed=1))

    def test_exact_information_on_isotropic_channels(self, scalar_model):
        mu = radial_measure([0.0, 10.0], [0.5, 0.5])
        est = _mutual_information(scalar_model, mu, McConfig(1000, seed=4))
        truth = ORACLE.mutual_information([0.0, 10.0], [0.5, 0.5])
        assert abs(est.value - truth) <= 1e-9
        assert (est.std_error, est.samples, est.seed) == (0.0, 0, 4)

    def test_determinism(self, scalar_model):
        mu = radial_measure([0.0, 4.0], [0.6, 0.4])
        cfg = McConfig(2000, seed=42)
        assert mutual_information(scalar_model, mu, cfg) == \
            mutual_information(scalar_model, mu, cfg)


class TestCrossTerm:
    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_output_variance_is_typed_error(self, dense):
        model = (ChannelModel(1, 2, 1.0, np.diag([10.0, 1.0])) if dense
                 else ChannelModel.isotropic(1, 1, 1.0, 10.0))
        x = np.zeros(model.N, dtype=complex)
        x[0] = 1e154
        mu = DiscreteMeasure.single(np.zeros(model.N, dtype=complex))
        with pytest.raises(ScaleOverflowError):
            cross_term(model, mu, x, McConfig(1000, seed=1))

    def test_point_mass_gives_negative_entropy(self, scalar_model):
        x = [2.0 + 0j]
        mu = DiscreteMeasure.single(x)
        est = cross_term(scalar_model, mu, x, McConfig(20_000, seed=5))
        assert abs(est.value + conditional_entropy(scalar_model, x)) \
            <= 3 * est.std_error

    def test_matches_radial_quadrature(self, scalar_model):
        mu = radial_measure([0.0, 6.0], [0.7, 0.3])
        x = [1.0 + 0j]
        est = cross_term(scalar_model, mu, x, McConfig(40_000, seed=6))
        truth = ORACLE.cross_term(1.0, [0.0, 6.0], [0.7, 0.3])
        assert abs(est.value - truth) <= max(3 * est.std_error, 1e-3)

    def test_general_path_against_entropy(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 2, 2)
        x = random_input(rng, 2)
        mu = DiscreteMeasure.single(x)
        est = cross_term(model, mu, x, McConfig(20_000, seed=9))
        assert abs(est.value + conditional_entropy(model, x)) \
            <= 3 * est.std_error

    def test_bit_identical_reruns(self, scalar_model):
        mu = radial_measure([0.0, 5.0], [0.5, 0.5])
        cfg = McConfig(3000, seed=15)
        a = cross_term(scalar_model, mu, [1.0 + 0j], cfg)
        b = cross_term(scalar_model, mu, [1.0 + 0j], cfg)
        assert a == b


class TestMixtureKernel:
    @staticmethod
    def _reference(logp, w):
        return logsumexp(logp, b=w[:, None], axis=0)

    def test_matches_logsumexp(self):
        rng = np.random.default_rng(11)
        logp = rng.normal(-3.0, 4.0, size=(4, 500))
        w = np.array([0.1, 0.4, 0.2, 0.3])
        np.testing.assert_allclose(_weighted_mix(logp, w),
                                   self._reference(logp, w), rtol=1e-12)

    def test_dominant_zero_weight_row_is_dropped(self):
        rng = np.random.default_rng(12)
        logp = rng.normal(-2.0, 1.0, size=(3, 200))
        logp[1] += 800.0  # exp(-800) underflows to 0 after a shift by this row
        w = np.array([0.6, 0.0, 0.4])
        got = _weighted_mix(logp, w)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, self._reference(logp[[0, 2]], w[[0, 2]]),
                                   rtol=1e-12)

    def test_fano_scale_separation(self):
        # components hundreds of nats apart, with the lead changing per column
        rng = np.random.default_rng(13)
        logp = np.vstack([rng.normal(0.0, 1.0, 300) - 600.0 * j for j in range(3)])
        logp[:, ::2] = logp[::-1, ::2]
        w = np.array([1e-300, 0.5, 0.5 - 1e-300])
        got = _weighted_mix(logp, w)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, self._reference(logp, w), rtol=1e-12)


class TestRadialQuadrature:
    @staticmethod
    def _laws(model, ts):
        atoms = np.zeros((len(ts), model.N), dtype=complex)
        atoms[:, 0] = np.sqrt(ts)
        return _ConditionalLaws(model, atoms)

    @pytest.mark.parametrize("a", sorted(ORACLE_OPTIMA))
    def test_matches_oracle_on_scan_grid(self, scalar_model, a):
        ts, ws, _, _ = ORACLE_OPTIMA[a]
        laws = self._laws(scalar_model, ts)
        for x in radial_scan_grid(scalar_model, 48.0 * a):
            t = float(np.real(np.vdot(x, x)))
            got = laws.cross_quadrature(x, ws)
            assert abs(got - ORACLE.cross_term(t, ts, ws)) <= 1e-9

    def test_zero_weight_atom_is_ignored(self, scalar_model):
        ts, ws, _, _ = ORACLE_OPTIMA[4.0]
        ts, ws = ts + [60.0], ws + [0.0]
        laws = self._laws(scalar_model, ts)
        for t in (0.0, 9.4, 30.0, 60.0, 150.0):
            got = laws.cross_quadrature([math.sqrt(t) + 0j], ws)
            assert abs(got - ORACLE.cross_term(t, ts, ws)) <= 1e-9

    @pytest.mark.parametrize("m", [1, 2])
    def test_fano_scale_separation(self, m):
        # c_1 / c_0 = 1e200: each atom's outputs see only its own component
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, ws = [0.0, 1e200], [0.3, 0.7]
        laws = self._laws(model, ts)
        for t, w in zip(ts, ws):
            c = 1.0 + t
            got = laws.cross_quadrature([math.sqrt(t) + 0j], ws)
            want = math.log(w) - m * math.log(math.pi * math.e * c)
            assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_point_mass_closed_form(self, m):
        # E[ln p(Y|x_0)] = -M ln(pi c_0) - M c_x / c_0 for Y ~ CN(0, c_x I_M)
        model = ChannelModel.isotropic(m, 2, 0.5, 2.0)
        laws = _ConditionalLaws(model, [[1.0 + 0.5j, -0.5j]])
        c0 = 0.5 + 2.0 * 1.5
        for x in ([0j, 0j], [1.0 + 0.5j, -0.5j], [3.0, 2.0j], [20.0, 0j]):
            cx = 0.5 + 2.0 * float(np.real(np.vdot(x, x)))
            want = -m * math.log(math.pi * c0) - m * cx / c0
            assert abs(laws.cross_quadrature(x, [1.0]) - want) <= 1e-9

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_tail_quantile_is_the_closed_form(self, m):
        # cached once per M; every law object reads the same value
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        want = float(_gamma_quantile(m, 1.0, _TAIL_MASS))
        assert [self._laws(model, ts).tail_s for ts in ([0.0], [1.0, 4.0])] == [want, want]

    def test_large_order_point_mass(self):
        # r^(M-1) and (M-1)! leave double range from M = 150; the octaves are
        # cut into ceil(sqrt(M) / 3) panels so the narrowing Gamma(M) peak
        # stays resolved
        for m in (16, 64, 150, 500):
            model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
            laws = _ConditionalLaws(model, [[2.0 + 0j]])
            for t in (0.0, 4.0, 30.0):
                want = -m * math.log(5.0 * math.pi) - m * (1.0 + t) / 5.0
                got = laws.cross_quadrature([math.sqrt(t) + 0j], [1.0])
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_equals_one_input_at_a_time(self, m):
        # the origin, an atom and points whose octaves end at several node
        # counts, in any order: each value is the one-input quadrature's
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, ws = [0.0, 4.0, 30.0], [0.6, 0.3, 0.1]
        xs = [[math.sqrt(t) + 0j] for t in (0.0, 0.3, 4.0, 7.5, 30.0, 90.0, 400.0, 2500.0)]
        want = [self._laws(model, ts).cross_quadrature(x, ws) for x in xs]
        laws = self._laws(model, ts)
        cxs = np.array([laws.scalar_variance(x) for x in xs])
        table, _ = laws.radial_weights(cxs, ws)
        assert len(set(table.node_counts(cxs * laws.tail_s).tolist())) >= 3
        for order in (np.arange(len(xs)), np.arange(len(xs))[::-1],
                      np.random.default_rng(m).permutation(len(xs))):
            got = self._laws(model, ts).cross_quadratures(cxs[order], ws)
            assert got.tolist() == [want[i] for i in order]

    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_monte_carlo(self, m):
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, ws = [0.0, 4.0, 30.0], [0.6, 0.3, 0.1]
        mu = radial_measure(ts, ws)
        laws = self._laws(model, ts)
        for t in (0.0, 4.0, 12.0):
            x = [math.sqrt(t) + 0j]
            est = cross_term(model, mu, x, McConfig(20_000, seed=21))
            assert abs(laws.cross_quadrature(x, ws) - est.value) <= 3 * est.std_error


class TestStreamDraws:
    def test_cached_draws_are_read_only(self, scalar_model):
        cfg = McConfig(1000, seed=3, batch=400)
        dense = random_model(np.random.default_rng(3), 2, 2)
        for model in (scalar_model, dense):
            laws = _ConditionalLaws(model, np.zeros((1, model.N), dtype=complex))
            for draw in laws._stream_draws(cfg, 0):
                for arr in (draw if isinstance(draw, tuple) else (draw,)):
                    with pytest.raises(ValueError):
                        arr[0] = 0


class TestStratifiedRadii:
    """The closed-form Gamma(M) quantile behind the isotropic sample streams."""

    N_STRATA = 64

    @classmethod
    def _points(cls):
        # 10^4 stratified points, as a stream forms them, plus both tails
        n = cls.N_STRATA
        ids = np.arange(10_000) % n
        u = np.random.default_rng(8).random(ids.size)
        low = np.array([2.0 ** -53, 1 / 64, 0.5])
        high = np.array([2.0 ** -53, 1e-10, 1e-18])  # qbar
        q = np.concatenate(((ids + u) / n, low, 1.0 - high))
        qbar = np.concatenate(((n - ids - u) / n, 1.0 - low, high))
        return q, qbar

    @pytest.mark.parametrize("m", range(1, 9))
    def test_forward_residual(self, m):
        # scipy's P itself is 1.2e-14 off at q = 1e-30 (M = 6) and 1e-13 at
        # 1e-300 against 40 digits; the extended-precision test covers those.
        q, qbar = self._points()
        s = _gamma_quantile(m, q, qbar)
        lower = q <= 0.5
        np.testing.assert_allclose(gammainc(m, s[lower]), q[lower], rtol=1e-14, atol=0)
        np.testing.assert_allclose(gammaincc(m, s[~lower]), qbar[~lower], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m", [*range(1, 9), 150, 200])
    def test_matches_gammaincinv_in_bulk(self, m):
        # gammaincinv is itself up to ~45 ulp (1e-14) off here, against a
        # 50-digit inverse; test_within_4_ulp_of_extended_precision holds the
        # quantile to 4 ulp.
        q, qbar = self._points()
        bulk = (q >= 2.0 ** -30) & (q <= 1.0 - 2.0 ** -10)
        np.testing.assert_allclose(_gamma_quantile(m, q[bulk], qbar[bulk]),
                                   gammaincinv(m, q[bulk]), rtol=2e-14, atol=0)

    @pytest.mark.parametrize("m", [150, 200])
    def test_large_order_stays_finite(self, m):
        # s^m and m! leave double range here; the residual never forms them
        assert np.all(np.isfinite(_gamma_quantile(m, *self._points())))
        tail = _gamma_quantile(m, 1.0, 1e-18)
        assert float(tail) == pytest.approx(gammainccinv(m, 1e-18), rel=2e-14)

    def test_unsettled_steps_raise(self):
        with pytest.raises(NotConvergedError):
            _gamma_quantile(3, np.array([0.75]), np.array([np.nan]))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_within_4_ulp_of_extended_precision(self, m):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        q, qbar = self._points()
        q = np.concatenate((q[:64], q[-6:], [2.0 ** -1074, 1e-300, 1e-30, 63 / 64]))
        qbar = np.concatenate((qbar[:64], qbar[-6:], [1.0, 1.0, 1.0, 1 / 64]))
        for qi, qbi, s in zip(q, qbar, _gamma_quantile(m, q, qbar)):
            lower = qi <= 0.5
            x = mpmath.mpf(float(s))
            for _ in range(2):  # Newton in 40 digits, from s
                tail = (mpmath.gammainc(m, 0, x, regularized=True) - qi if lower
                        else qbi - mpmath.gammainc(m, x, mpmath.inf, regularized=True))
                x -= tail / (mpmath.exp(-x) * x ** (m - 1) / mpmath.factorial(m - 1))
            assert abs(float(s) - x) <= 4 * np.spacing(s), (qi, qbi)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_zero_quantile_is_zero(self, m):
        assert _gamma_quantile(m, np.zeros(3), np.ones(3)).tolist() == [0.0] * 3

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_top_stratum_stays_finite(self, m):
        n, u = self.N_STRATA, 1.0 - 2.0 ** -53
        q, qbar = (n - 1 + u) / n, (n - (n - 1) - u) / n
        assert q == 1.0  # the quantile of q alone is infinite here
        s = _gamma_quantile(m, np.array([q]), np.array([qbar]))
        assert np.isfinite(s[0])
        assert gammaincc(m, s[0]) == pytest.approx(qbar, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 3])
    def test_reruns_are_bit_identical(self, m):
        first = _stratified_radii_sq(derive_seed(5, 0, 0), 7, 1000, m, self.N_STRATA)
        again = _stratified_radii_sq(derive_seed(5, 0, 0), 7, 1000, m, self.N_STRATA)
        assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])


class TestDenseKernel:
    @staticmethod
    def _atoms(rng, model, norms_sq):
        dirs = np.array([random_input(rng, model.N) for _ in norms_sq])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return np.sqrt(norms_sq)[:, None] * dirs

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (1, 3), (4, 2)])
    def test_matches_triangular_solve(self, m, n):
        # the quadratic-form (k, n) log densities against ConditionalCovariance's
        # triangular solves on the very same outputs y = L_x w
        rng = np.random.default_rng(100 * m + n)
        model = random_model(rng, m, n)
        atoms = self._atoms(rng, model, np.geomspace(1e-3, 1e6, 10))
        laws = _ConditionalLaws(model, atoms)
        covs = [conditional_covariance(model, a) for a in atoms]
        cfg = McConfig(1000, seed=4, batch=300)
        inputs = [np.zeros(n, dtype=complex), atoms[0], atoms[-1],
                  random_input(rng, n), random_input(rng, n, scale=300.0)]
        for stream, x in enumerate(inputs):
            factor = conditional_covariance(model, x).factor
            batches = list(laws.stream_log_densities(x, cfg, stream))
            assert len(batches) == 4
            for b, (ids, logp) in enumerate(batches):
                w = _complex_standard_normals(derive_seed(cfg.seed, stream, b),
                                              logp.shape[1], m)
                ref = np.array([c.log_densities(w @ factor.T) for c in covs])
                assert ids is None and logp.shape == (10, w.shape[0])
                np.testing.assert_allclose(logp, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_draws_are_the_monomials_of_the_complex_normals(self, m):
        model = random_model(np.random.default_rng(5), m, 2)
        cfg = McConfig(1000, seed=4, batch=300)
        draws = _ConditionalLaws(model, np.zeros((1, 2), complex))._stream_draws(cfg, 3)
        assert len(draws) == 4
        p, q = np.triu_indices(m, 1)
        for b, draw in enumerate(draws):
            w = _complex_standard_normals(derive_seed(cfg.seed, 3, b), draw.shape[1], m)
            cross = w[:, p].conj() * w[:, q]
            expected = np.vstack([np.abs(w.T) ** 2, cross.real.T, cross.imag.T])
            assert draw.shape == (m * m, w.shape[0])
            np.testing.assert_allclose(draw, expected, rtol=1e-15, atol=0.0)
            with pytest.raises(ValueError):
                draw[0, 0] = 0.0

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (1, 3)])
    def test_batched_covariances_equal_one_point(self, m, n):
        rng = np.random.default_rng(7 * m + n)
        model = random_model(rng, m, n)
        xs = np.array([np.zeros(n, dtype=complex)]
                      + [random_input(rng, n, scale=s) for s in np.geomspace(1e-3, 1e3, 30)])
        matrices, factors, log_dets = _conditional_covariances(model, xs)
        for x, matrix, factor, log_det in zip(xs, matrices, factors, log_dets):
            cov = conditional_covariance(model, x)
            assert np.array_equal(cov.matrix, matrix)
            assert np.array_equal(cov.factor, factor)
            assert cov.log_det == log_det

    def test_defective_sigma_raises(self):
        model = random_model(np.random.default_rng(9), 2, 2)
        model._sigma4 = -model._sigma4  # negative definite: C(x) fails for large x
        x = np.array([3.0, 1j])
        with pytest.raises(InvalidCovarianceError):
            _conditional_covariances(model, np.array([np.zeros(2, complex), x]))
        with pytest.raises(InvalidCovarianceError):
            conditional_covariance(model, x)


class TestShellProbability:
    def test_degenerate_shell(self, scalar_model):
        est = shell_probability(scalar_model, [1.0 + 0j],
                                OutputShell(2.0, 2.0), McConfig(1000, seed=1))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_full_space(self, scalar_model):
        est = shell_probability(scalar_model, [1.0 + 0j],
                                OutputShell(0.0, math.inf), McConfig(1000, seed=1))
        assert est.value == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_spot_value(self, scalar_model):
        # c = 17, shell [sqrt(2)*4, sqrt(2)*16)
        x = [4.0 + 0j]
        shell = OutputShell(math.sqrt(2.0) * 4, math.sqrt(2.0) * 16)
        est = shell_probability(scalar_model, x, shell, McConfig(1000, seed=1))
        expected = math.exp(-32.0 / 17.0) - math.exp(-512.0 / 17.0)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_mc_path_close_to_radial_closed_form(self):
        # a hair of anisotropy forces the MC path; the exact radial value of
        # the unperturbed channel is correct to ~1e-6
        sigma = np.diag([1.0, 1.0 + 1e-6])
        model = ChannelModel(2, 1, 1.0, sigma[:2, :2])
        x = [2.0 + 0j]
        shell = OutputShell(1.0, 3.0)
        est = shell_probability(model, x, shell, McConfig(50_000, seed=3))
        iso = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        exact = shell_probability(iso, x, shell, McConfig(1000, seed=1))
        assert est.std_error > 0.0
        assert abs(est.value - exact.value) <= 3 * est.std_error + 1e-5

    def test_partition_sums_to_one_exact_path(self, scalar_model):
        x = [3.0 + 0j]
        edges = [0.0, 1.0, 4.0, 9.0, math.inf]
        cfg = McConfig(1000, seed=1)
        total = sum(shell_probability(scalar_model, x,
                                      OutputShell(a, b), cfg).value
                    for a, b in zip(edges[:-1], edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_partition_sums_to_one_mc_path(self):
        sigma = np.diag([1.0, 1.5])
        model = ChannelModel(2, 1, 1.0, sigma)
        x = [1.0 + 0j]
        edges = [0.0, 1.0, 2.5, math.inf]
        cfg = McConfig(30_000, seed=4)
        ests = [shell_probability(model, x, OutputShell(a, b), cfg)
                for a, b in zip(edges[:-1], edges[1:])]
        total = sum(e.value for e in ests)
        pooled = math.sqrt(sum(e.std_error ** 2 for e in ests))
        assert abs(total - 1.0) <= 3 * pooled + 1e-12

    @pytest.mark.parametrize("m", [1, 8, 32, 64])
    def test_scalar_law_masses_match_mpmath(self, m):
        # shells around the mean of ||y||^2 ~ Gamma(m, 1) at the origin, where
        # C(x) = I and each threshold is exp(2 ln rho) for the given ln rho
        mpmath = pytest.importorskip("mpmath")
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ratios = np.array([0.25, 0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0])
        edges = 0.5 * np.log(m * ratios)
        log_rho = np.column_stack((edges[:-1], edges[1:]))
        k = log_rho.shape[0]
        got = _shell_probabilities(model, np.ones((k, 1), complex), np.full(k, -np.inf),
                                   log_rho, McConfig(1000, seed=1))
        with mpmath.workdps(40):
            for (lr1, lr2), est in zip(log_rho, got):
                ref = mpmath.gammainc(m, mpmath.exp(2 * mpmath.mpf(lr1)),
                                      mpmath.exp(2 * mpmath.mpf(lr2)), regularized=True)
                assert est.std_error == 0.0
                assert abs(est.value - float(ref)) <= 1e-15


class TestBatchedShells:
    def test_equals_one_call_per_input(self):
        model = random_model(np.random.default_rng(11), 2, 2)
        rng = np.random.default_rng(12)
        xs = np.array([np.zeros(2, complex)] + [random_input(rng, 2, scale=s)
                                                 for s in (0.5, 2.0, 10.0)])
        shells = [OutputShell(0.5, 2.0), OutputShell(1.0, 3.0),
                  OutputShell(2.0, math.inf), OutputShell(5.0, 20.0)]
        cfg = McConfig(1000, seed=4, batch=300)
        # polar form: unit directions (e0 at the origin), ln ||x||, log radii
        norms = np.array([np.linalg.norm(x) for x in xs])
        dirs = np.array([x / r if r > 0.0 else np.eye(2)[0] for x, r in zip(xs, norms)],
                        dtype=complex)
        with np.errstate(divide="ignore"):
            batched = _shell_probabilities(model, dirs, np.log(norms),
                                           np.log([[s.rho1, s.rho2] for s in shells]), cfg)
        single = [shell_probability(model, x, s, cfg) for x, s in zip(xs, shells)]
        assert batched == single
        assert batched[0].std_error == 0.0 and batched[0].samples == 0
        assert all(0.0 < e.value < 1.0 and e.samples == 1000 for e in batched[1:])


class TestErrorScaling:
    def test_doubling_samples_shrinks_se(self, scalar_model):
        mu = radial_measure([0.0, 5.0], [0.5, 0.5])
        x = [3.0 + 0j]
        se1 = cross_term(scalar_model, mu, x, McConfig(20_000, seed=2)).std_error
        se2 = cross_term(scalar_model, mu, x, McConfig(40_000, seed=2)).std_error
        ratio = se2 / se1
        assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)

    def test_se_calibrated_against_seed_spread(self, scalar_model):
        mu = radial_measure([0.0, 5.867], [0.83, 0.17])
        vals, ses = [], []
        for seed in range(16):
            est = cross_term(scalar_model, mu, [math.sqrt(20.0) + 0j],
                             McConfig(5000, seed=seed))
            vals.append(est.value)
            ses.append(est.std_error)
        spread = float(np.std(vals, ddof=1))
        assert 0.5 * np.mean(ses) <= spread <= 2.0 * np.mean(ses)
