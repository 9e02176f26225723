import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, logsumexp

from fading_capacity import (ChannelModel, DiscreteMeasure,
                             InvalidCovarianceError, KktContext, McConfig, McEstimate,
                             NotConvergedError, OutputShell, ScaleOverflowError,
                             chi_square_tail,
                             conditional_covariance, conditional_entropy,
                             cross_term, derive_seed, estimate, kkt_scan, kkt_value,
                             log_chi_square_tail, mutual_information,
                             radial_scan_grid, shell_probability)
from fading_capacity.channel import _complex_standard_normals, _conditional_covariances
from fading_capacity.estimate import (_STIRLERR, _TAIL_MASS, _ConditionalLaws,
                                      _gamma_quantile, _log_gamma_tail, _monomials,
                                      _mutual_information, _polar, _shell_probabilities, _stirlerr,
                                      _stratified_radii_sq, _stream_draws)
from fading_capacity.measure import _weighted_mix
from fading_capacity.optimizer import _SupportEvaluator
from conftest import ORACLE_OPTIMA, radial_measure, random_model, random_input
from oracles import ScalarRadialOracle, hypoexponential_shell_mass

ORACLE = ScalarRadialOracle(1.0, 1.0)


class TestConfig:
    def test_sample_floor(self):
        with pytest.raises(ValueError):
            McConfig(samples=50, seed=0)

    @pytest.mark.parametrize("field,kwargs", [
        ("samples", {"samples": 1000.5}), ("samples", {"samples": 1000.0}),
        ("samples", {"samples": True})],
        ids=["samples-float", "samples-whole-float", "samples-bool"])
    def test_counts_must_be_integers(self, field, kwargs):
        # 1000.5 constructed, then _stream_draws raised an untyped TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McConfig(seed=1, **kwargs)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True], ids=["float", "whole-float", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 constructed, drew the seed-1 streams and reported seed=1.5
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(1000, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 7 + (1 << 64)],
                             ids=["negative", "two-to-the-64", "seven-plus-two-to-the-64"])
    def test_seed_must_name_one_stream_family(self, seed):
        # derive_seed masks to 64 bits: each ran on the streams of seed mod 2^64 (-1 gave
        # the MI of 2^64 - 1, 7 + 2^64 that of 7) but reported, and cached, its own seed
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            McConfig(1000, seed=seed)

    def test_seed_range_ends_accepted(self):
        assert [McConfig(1000, seed=s).seed for s in (0, (1 << 64) - 1)] == [0, (1 << 64) - 1]

    def test_numpy_integer_counts_accepted(self):
        assert McConfig(np.int64(1000), seed=np.uint64(1)) == McConfig(1000, seed=1)

    def test_derive_seed_rejects_seeds_outside_64_bits(self):
        # it masked the base seed to 64 bits: -1 gave the streams of 2^64 - 1
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
                derive_seed(seed, 1)
        assert len({derive_seed(seed, 1) for seed in (0, (1 << 64) - 1)}) == 2

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

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 32, 64, 150, 500])
    def test_tails_match_mpmath(self, m):
        # Q(m, t) and P(m, t) at t = m e^-4 ... m e^2, m -+ 6 sqrt(m) and fixed points
        # against 40-digit mpmath and scipy: the smaller tail within 4 (1 + kappa) ulp
        # (scipy's own error is up to 5.4 (1 + kappa) here), kappa = t f(t) / tail its
        # condition number in t; the log tail within that plus 2 ulp of its own size,
        # also where the tail underflows; both tails within 1e-15 absolute
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        ts = [m * math.exp(e) for e in np.arange(-4.0, 2.25, 0.5)] + [1e-3, 0.5, 4.0, 40.0]
        ts += [t for t in (m - 6.0 * math.sqrt(m), m + 6.0 * math.sqrt(m)) if t > 0.0]
        with mpmath.workdps(40):
            for t in ts:
                x = mpmath.mpf(t)
                q = mpmath.gammainc(m, x, mpmath.inf, regularized=True)
                p = mpmath.gammainc(m, 0, x, regularized=True)
                density = mpmath.exp(-x) * x ** (m - 1) / mpmath.factorial(m - 1)
                for upper, ref, other in ((True, q, float(gammaincc(m, t))),
                                          (False, p, float(gammainc(m, t)))):
                    log_got = _log_gamma_tail(m, t, upper)
                    got = chi_square_tail(t, m) if upper else math.exp(log_got)
                    assert abs(got - float(ref)) <= 1e-15 and abs(got - other) <= 1e-15
                    if ref > min(q, p):
                        continue
                    tol = 4.0 * (1.0 + float(x * density / ref)) * eps
                    log_ref = float(mpmath.log(ref))
                    assert abs(log_got - log_ref) <= tol + 2.0 * eps * abs(log_ref)
                    if ref >= np.finfo(float).tiny:
                        assert abs(got - float(ref)) <= tol * float(ref)
                        assert abs(got - other) <= 2.5 * tol * other
        for log_t in (-700.0, -3.0, 0.0, 0.7, 5.0, 700.0):
            assert log_chi_square_tail(log_t, 1) == -math.exp(log_t)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 4.0, 40.0])
    def test_public_tails_match_mpmath(self, t):
        # chi_square_tail and log_chi_square_tail (at exp(log t), the threshold it
        # evaluates) at m = 3 against 40-digit mpmath: Q within 4 (1 + kappa) ulp,
        # kappa = t f(t) / Q, and within 2.5 times that of scipy's gammaincc; ln Q
        # within that absolute plus 2 ulp of its own size
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps

        def reference(s):
            with mpmath.workdps(40):
                x = mpmath.mpf(s)
                q = mpmath.gammainc(3, x, mpmath.inf, regularized=True)
                kappa = x * mpmath.exp(-x) * x ** 2 / 2 / q
                return float(q), float(mpmath.log(q)), 4.0 * (1.0 + float(kappa)) * eps

        q, _, tol = reference(t)
        got = chi_square_tail(t, 3)
        assert abs(got - q) <= tol * q
        assert abs(got - float(gammaincc(3, t))) <= 2.5 * tol * got
        log_t = math.log(t)
        _, log_q, tol = reference(math.exp(log_t))
        assert abs(log_chi_square_tail(log_t, 3) - log_q) <= tol + 2.0 * eps * abs(log_q)

    @pytest.mark.parametrize("m", [2, 3, 8, 64])
    def test_log_upper_tail_near_one_matches_mpmath(self, m):
        # up to the mode Q is near 1 and ln Q = log1p(-P): within 1e-14 relative of
        # 60-digit mpmath, or 2 |ln P| ulp where the double ln P alone is |ln P| / 2
        # ulp off (from ln P ~ -68 on: m = 8 at t = 7e-4, m = 64 at t <= 6.3)
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        ts = [0.001] + [f * (m - 1) for f in (1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        for t in ts:
            with mpmath.workdps(60):
                p = mpmath.gammainc(m, 0, mpmath.mpf(t), regularized=True)
                ref, log_p = float(mpmath.log1p(-p)), float(mpmath.log(p))
            got = _log_gamma_tail(m, t, True)
            assert abs(got - ref) <= max(1e-14, 2.0 * eps * abs(log_p)) * abs(ref), t
        for t in (1e-3, 0.5, 4.0, 40.0):
            assert _log_gamma_tail(1, t, True) == -t

    def test_stirlerr_matches_mpmath(self):
        # the table is the rounded value; the series past it is within 2e-18 absolute
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in range(1, 200):
                ref = (mpmath.loggamma(k + 1) - (k + mpmath.mpf(0.5)) * mpmath.log(k) + k
                       - mpmath.log(2 * mpmath.pi) / 2)
                if k < len(_STIRLERR):
                    assert _STIRLERR[k] == float(ref)
                assert abs(_stirlerr(k) - float(ref)) <= 2e-18

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            chi_square_tail(math.nan, 3)
        with pytest.raises(ValueError):
            chi_square_tail(-1.0, 3)

    def test_nan_log_threshold_rejected(self):
        with pytest.raises(ValueError):
            log_chi_square_tail(math.nan, 3)

    @pytest.mark.parametrize("m", [2.5, 0, -2, 3.0, True])
    def test_order_must_be_a_positive_integer(self, m):
        # 2.5 gave Q(2, 1), 0 and -2 a bare "math domain error", True Q(1, 1)
        with pytest.raises(ValueError, match="positive integer"):
            chi_square_tail(1.0, m)
        with pytest.raises(ValueError, match="positive integer"):
            log_chi_square_tail(0.0, m)


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

    @pytest.mark.parametrize("call", ["mutual_information", "_mutual_information",
                                      "cross_term", "kkt_value"])
    @pytest.mark.parametrize("x", [1e153, 1e154, 1.3e154])
    def test_isotropic_inputs_near_the_double_range(self, scalar_model, call, x):
        # ||x||^2 = 1e306 fits every form the isotropic paths take of its variance;
        # at 1e308 and 1.69e308 pi c and the law's tail edge do not (warnings are errors)
        mu = DiscreteMeasure([[0j], [x + 0j]], [0.5, 0.5])
        cfg = McConfig(1000, seed=1)
        calls = {
            "mutual_information": lambda: mutual_information(scalar_model, mu, cfg),
            "_mutual_information": lambda: _mutual_information(scalar_model, mu, cfg),
            "cross_term": lambda: cross_term(scalar_model, mu, [x + 0j], cfg),
            "kkt_value": lambda: kkt_value(scalar_model, mu, KktContext(0.1, 1.0, 0.2),
                                           [x + 0j], cfg),
        }
        if x > 1e153:
            with pytest.raises(ScaleOverflowError):
                calls[call]()
        else:
            assert math.isfinite(calls[call]().value)

    def test_close_variances_near_the_double_range(self, scalar_model):
        # two laws at ||x||^2 ~ 1e300 whose transition width 1 / |1/c_i - 1/c_j| is
        # past double range: its panel edges are dropped, with no overflow warning
        mu = DiscreteMeasure([[0j], [1e150 + 0j], [1.0000001e150 + 0j]], [0.4, 0.3, 0.3])
        cfg = McConfig(1000, seed=1)
        assert math.isfinite(_mutual_information(scalar_model, mu, cfg).value)
        assert math.isfinite(kkt_value(scalar_model, mu, KktContext(0.1, 1.0, 0.2),
                                       [1e150 + 0j], cfg).value)

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

    @pytest.mark.parametrize("w", [[0.1, 0.4, 0.2, 0.3], [0.0, 0.5, 0.0, 0.5],
                                   [0.6, 0.0, 0.4, 0.0], [0.0, 0.0, 0.0, 1.0]])
    def test_in_place_equals_allocating(self, w):
        # zero-weight rows included: the kept rows move up inside the scratch
        rng = np.random.default_rng(14)
        logp = rng.normal(-3.0, 4.0, size=(4, 5000))
        logp[0] += 800.0
        w = np.array(w)
        before = logp.copy()
        want = _weighted_mix(logp, w)
        assert np.array_equal(logp, before)  # the allocating call leaves logp alone
        buf = np.empty(logp.shape[1])
        got = _weighted_mix(logp.copy(), w, out=buf)
        assert got is buf
        assert np.array_equal(got, want)

    def test_fano_scale_separation(self):
        # components hundreds of nats apart, with the lead changing per column
        rng = np.random.default_rng(13)
        logp = np.vstack([rng.normal(0.0, 1.0, 300) - 600.0 * j for j in range(3)])
        logp[:, ::2] = logp[::-1, ::2]
        w = np.array([1e-300, 0.5, 0.5 - 1e-300])
        got = _weighted_mix(logp, w)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, self._reference(logp, w), rtol=1e-12)


def _variance(model, x) -> float:
    """c_x = noise_var + iso_var x^H x, the variance of p(.|x) on an isotropic channel."""
    return model.noise_var + model.iso_var * float(np.real(np.vdot(x, x)))


def _radial_groups(laws, cxs):
    """(rows, k, n) per node count of the input variances cxs, each k in its own array."""
    counts = laws.table.node_counts(cxs * laws.tail_s)
    return [(rows, k.copy(), n) for rows, k, n in laws.radial_kernels(cxs, counts)]


def _cross_quadrature(laws, x, weights) -> float:
    """cross_quadratures for the one input x."""
    return float(laws.cross_quadratures([_variance(laws.model, x)], weights)[0])


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
            got = _cross_quadrature(laws, x, ws)
            assert abs(got - ORACLE.cross_term(t, ts, ws)) <= 1e-9

    def test_zero_weight_atom_is_ignored(self, scalar_model):
        ts, ws, _, _ = ORACLE_OPTIMA[4.0]
        ts, ws = ts + [60.0], ws + [0.0]
        laws = self._laws(scalar_model, ts)
        for t in (0.0, 9.4, 30.0, 60.0, 150.0):
            got = _cross_quadrature(laws, [math.sqrt(t) + 0j], ws)
            assert abs(got - ORACLE.cross_term(t, ts, ws)) <= 1e-9

    @pytest.mark.parametrize("m", [1, 2])
    def test_fano_scale_separation(self, m):
        # c_1 / c_0 = 1e200: each atom's outputs see only its own component
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, ws = [0.0, 1e200], [0.3, 0.7]
        laws = self._laws(model, ts)
        for t, w in zip(ts, ws):
            c = 1.0 + t
            got = _cross_quadrature(laws, [math.sqrt(t) + 0j], ws)
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
            assert abs(_cross_quadrature(laws, x, [1.0]) - want) <= 1e-9

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
                got = _cross_quadrature(laws, [math.sqrt(t) + 0j], [1.0])
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 150])
    def test_batch_equals_one_input_at_a_time(self, m):
        # the origin, an atom and points whose octaves end at several node
        # counts, in any order: each value is the one-input quadrature's (at
        # M = 150 the normalizer, which alone leaves double range, is in the exponent)
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, ws = [0.0, 4.0, 30.0], [0.6, 0.3, 0.1]
        xs = [[math.sqrt(t) + 0j] for t in (0.0, 0.3, 4.0, 7.5, 30.0, 90.0, 400.0, 2500.0)]
        want = [_cross_quadrature(self._laws(model, ts), x, ws) for x in xs]
        laws = self._laws(model, ts)
        cxs = np.array([_variance(model, x) for x in xs])
        assert len(set(laws.table.node_counts(cxs * laws.tail_s).tolist())) >= 3
        for order in (np.arange(len(xs)), np.arange(len(xs))[::-1],
                      np.random.default_rng(m).permutation(len(xs))):
            got = self._laws(model, ts).cross_quadratures(cxs[order], ws)
            assert got.tolist() == [want[i] for i in order]

    def test_scaled_column_changes_no_value(self):
        # inputs out to ||x||^2 = 1e306 scale the column du ln f_mu by a power of two
        # that the one-input calls below 1e300 do not; each value is still theirs
        model = ChannelModel.isotropic(1, 1, 1.0, 1.0)
        cxs = 1.0 + np.array([0.0, 3.0, 1e10, 1e200, 1e300, 1e306])
        laws = self._laws(model, [0.0, 1e150])
        counts = laws.table.node_counts(cxs * laws.tail_s)
        lnf = laws.table.mixture(np.array([0.5, 0.5]))
        assert [laws._mixture_column(lnf, n)[1] > 0 for n in counts] == [False] * 4 + [True] * 2
        want = [self._laws(model, [0.0, 1e150]).cross_quadratures(cxs[i:i + 1], [0.5, 0.5])[0]
                for i in range(cxs.size)]
        assert laws.cross_quadratures(cxs, [0.5, 0.5]).tolist() == want

    # (M, squared norms, weights): the oracle optima, then supports with a tail
    # weight far below the others' or atoms crowded together, where ln f_mu
    # turns sharply between two lines
    ACCURACY_CASES = {
        **{f"oracle-{a}": (1, ts, ws) for a, (ts, ws, _, _) in ORACLE_OPTIMA.items()},
        "1e-12-at-1e4": (1, [0.0, 1e4], [1.0 - 1e-12, 1e-12]),
        "crowded": (1, [0.0, 5.0, 5.001, 5.002], [0.4, 0.2, 0.2, 0.2]),
        "1e-20-at-40": (1, [0.0, 40.0], [1.0, 1e-20]),
        "1e-20-at-400": (1, [0.0, 400.0], [1.0, 1e-20]),
        "1e-20-next-to-100": (1, [0.0, 100.0, 110.0], [0.5, 0.5, 1e-20]),
        "m3-to-1e6": (3, [0.0, 1e3, 1e6], [0.5, 0.3, 0.2]),
        "m8": (8, [0.0, 4.0, 30.0], [0.6, 0.3, 0.1]),
        "m2-4-atoms": (2, [0.0, 1.0, 9.0, 50.0], [0.4, 0.3, 0.2, 0.1]),
    }

    @pytest.mark.parametrize("case", sorted(ACCURACY_CASES))
    def test_matches_finely_cut_panels(self, monkeypatch, case):
        # against 256 panels per octave, at the origin, 200 squared norms from
        # 1e-4 to 1e5 and the atoms; 4 panels per octave read 2.1e-10 at
        # 1e-12-at-1e4 and 1.8e-10 at 1e-20-at-400
        m, ts, ws = self.ACCURACY_CASES[case]
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        cxs = 1.0 + np.concatenate(([0.0], np.geomspace(1e-4, 1e5, 200), ts))
        got = self._laws(model, ts).cross_quadratures(cxs, ws)
        monkeypatch.setattr(estimate, "_OCTAVE_PARTS", 256)
        want = self._laws(model, ts).cross_quadratures(cxs, ws)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_node_count_depends_on_the_largest_variance_alone(self):
        # no node depends on the weights or on how many atoms there are: 160
        # atoms need the nodes 2 do, and at most 1000 of them
        model = ChannelModel.isotropic(1, 1, 1.0, 1.0)
        many = self._laws(model, np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 159))))
        two = self._laws(model, [0.0, 200.0])
        counts = [laws.table.node_counts(laws.scalar_var * laws.tail_s).max()
                  for laws in (many, two)]
        assert counts[0] == counts[1] <= 1000
        assert np.array_equal(many.table.u, two.table.u)

    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_monte_carlo(self, m):
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, ws = [0.0, 4.0, 30.0], [0.6, 0.3, 0.1]
        mu = radial_measure(ts, ws)
        laws = self._laws(model, ts)
        for t in (0.0, 4.0, 12.0):
            x = [math.sqrt(t) + 0j]
            est = cross_term(model, mu, x, McConfig(20_000, seed=21))
            assert abs(_cross_quadrature(laws, x, ws) - est.value) <= 3 * est.std_error


class TestInPlaceIsotropicPaths:
    """The isotropic quadrature and Monte Carlo write into per-call buffers and
    take every entropy from one batched factorization; each value equals the
    one the allocating formulas give, bit for bit."""

    @staticmethod
    def _atoms(rng, n, k):
        # the origin, then scales from 1e-3 to 1e3 along random directions
        dirs = np.array([random_input(rng, n) for _ in range(k - 1)]).reshape(k - 1, n)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return np.vstack([np.zeros((1, n)), np.geomspace(1e-3, 1e3, k - 1)[:, None] * dirs])

    @pytest.mark.parametrize("shape", ["iso1x1", "iso3x2", "dense2x2"])
    @pytest.mark.parametrize("k", [1, 2, 7, 16])
    def test_neg_entropies_equal_the_per_atom_entropies(self, shape, k):
        rng = np.random.default_rng(k)
        model = {"iso1x1": ChannelModel.isotropic(1, 1, 1.0, 1.0),
                 "iso3x2": ChannelModel.isotropic(3, 2, 0.5, 2.0),
                 "dense2x2": random_model(rng, 2, 2)}[shape]
        atoms = self._atoms(rng, model.N, k)
        want = [-conditional_entropy(model, x) for x in atoms]
        assert np.array_equal(_ConditionalLaws(model, atoms).neg_entropies(), want)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("batch", [None, 300])
    def test_stream_stats_equal_the_allocating_formulas(self, m, batch, small_batches):
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        laws = _ConditionalLaws(model, [[0j], [2.0 + 0j], [0.5j], [7.0 + 1.0j]])
        w = np.array([0.5, 0.3, 0.0, 0.2])
        cfg, batch = McConfig(1000, seed=5), small_batches(batch) if batch else 1000
        strata = estimate._n_strata(cfg)
        for stream, x in enumerate(([0j], [2.0 + 0j], [30.0 + 0j])):
            ratios = _variance(model, x) / laws.scalar_var
            s1, s2, count = np.zeros(strata), np.zeros(strata), np.zeros(strata)
            for b, s in enumerate(_stream_draws(m, True, cfg, stream)):
                ids = (b * batch + np.arange(s.size)) % strata  # by position
                mix = _weighted_mix(-np.outer(ratios, s) - laws.log_norm[:, None], w)
                s1 += np.bincount(ids, weights=mix, minlength=strata)
                s2 += np.bincount(ids, weights=mix * mix, minlength=strata)
                count += np.bincount(ids, minlength=strata)
            means, var = estimate._sample_moments(s1, s2, count)
            want = (float(np.sum(means)) / strata, math.sqrt(float(np.sum(var)) / strata ** 2))
            got = laws.stream_stats([x], w, cfg, stream)
            assert (got[0].tolist(), got[1].tolist()) == ([want[0]], [want[1]])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("samples,batch", [(100, 7), (200, 90), (1000, 300)])
    def test_stream_stats_where_strata_straddle_batches(self, m, samples, batch,
                                                        small_batches):
        # the reference draws each batch's radii afresh, from its seed and positions,
        # and sums every stratum with bincount
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        laws = _ConditionalLaws(model, [[0j], [2.0 + 0j], [0.5j], [7.0 + 1.0j]])
        w = np.array([0.4, 0.3, 0.2, 0.1])
        cfg = McConfig(samples, seed=9)
        small_batches(batch)
        n = estimate._n_strata(cfg)
        assert batch % n  # a stratum's samples fall in more than one batch
        for stream, x in enumerate(([0j], [2.0 + 0j], [30.0 + 0j])):
            ratios = _variance(model, x) / laws.scalar_var
            s1, s2, count = np.zeros(n), np.zeros(n), np.zeros(n)
            for b, start in enumerate(range(0, samples, batch)):
                nb = min(batch, samples - start)
                u = np.random.default_rng(derive_seed(cfg.seed, stream, b)).random(nb)
                ids = (start + np.arange(nb)) % n
                s = _gamma_quantile(m, (ids + u) / n, (n - ids - u) / n)
                mix = _weighted_mix(-np.outer(ratios, s) - laws.log_norm[:, None], w)
                s1 += np.bincount(ids, weights=mix, minlength=n)
                s2 += np.bincount(ids, weights=mix * mix, minlength=n)
                count += np.bincount(ids, minlength=n)
            means, var = estimate._sample_moments(s1, s2, count)
            got = laws.stream_stats([x], w, cfg, stream)
            assert got[0].tolist() == [float(np.sum(means)) / n]
            assert got[1].tolist() == [math.sqrt(float(np.sum(var)) / n ** 2)]

    @staticmethod
    def _reference_kernels(laws, table, cx, n):
        # the allocating form: exp of c_x times the Gamma(M, c_x) density, in logs
        m, u = laws.model.M, table.u[:n]
        e = np.multiply.outer(-1.0 / cx, u)
        if m > 1:
            e = e + (m - 1) * np.log(u) - ((m - 1) * np.log(cx) + math.lgamma(m))[:, None]
        return np.exp(e)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quadratures_equal_the_allocating_formulas(self, m):
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        ts, w = [0.0, 4.0, 30.0], np.array([0.6, 0.3, 0.1])
        laws = TestRadialQuadrature._laws(model, ts)
        cxs = 1.0 + np.array([0.0, 0.3, 4.0, 7.5, 30.0, 90.0, 400.0, 2500.0])
        groups = _radial_groups(laws, cxs)
        table = laws.table
        assert np.array_equal(table.logp,
                              -np.outer(laws.inv_var, table.u) - laws.log_norm[:, None])
        assert len(groups) >= 3
        lnf = table.mixture(w)
        want = np.empty(cxs.size)
        for rows, k, n in groups:
            ref = self._reference_kernels(laws, table, cxs[rows], n)
            assert np.array_equal(k, ref)
            want[rows] = np.add.reduce(ref * (table.du[:n] * lnf[:n]), axis=1) / cxs[rows]
        assert np.array_equal(laws.cross_quadratures(cxs, w), want)

    @pytest.mark.parametrize("m", [1, 3])
    def test_evaluate_equals_the_allocating_formulas(self, m):
        model = ChannelModel.isotropic(m, 1, 1.0, 1.0)
        atoms = np.array([[0j], [2.0 + 0j], [5.0 + 0j], [30.0 + 0j]])
        w = np.array([0.5, 0.3, 0.2, 0.0])
        ev = _SupportEvaluator(model, atoms, McConfig(1000, seed=5))
        cross, post = ev.evaluate(w)
        laws = _ConditionalLaws(model, atoms)
        groups = _radial_groups(laws, laws.scalar_var)
        table, lnf = laws.table, laws.table.mixture(w)
        with np.errstate(divide="ignore"):
            log_w = np.log(w)[:, None]
        for rows, _, n in groups:
            cx, du = laws.scalar_var[rows], table.du[:n]
            k = self._reference_kernels(laws, table, cx, n)
            assert np.array_equal(cross[rows], np.add.reduce(k * (du * lnf[:n]), axis=1) / cx)
            q = k * du / cx[:, None]
            assert np.array_equal(post[rows], q @ np.exp(table.logp[:, :n] + log_w - lnf[:n]).T)

    def test_evaluate_keeps_one_table_and_its_groups(self):
        # a second weight vector reuses the first call's nodes and Gamma-density
        # groups, and no call overwrites the kept groups
        model = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        atoms = np.array([[0j], [2.0 + 0j], [5.0 + 0j], [30.0 + 0j]])
        ev = _SupportEvaluator(model, atoms, McConfig(1000, seed=5))
        ev.evaluate(np.array([0.5, 0.3, 0.2, 0.0]))
        table, kept = ev._laws.table, ev._laws.atom_groups
        u, logp, groups = table.u, table.logp, [(k.copy(), q.copy()) for _, k, q, _ in kept]
        assert len(groups) >= 2
        ev.evaluate(np.array([0.1, 0.2, 0.3, 0.4]))
        assert ev._laws.table is table and ev._laws.atom_groups is kept
        assert table.u is u and table.logp is logp
        laws = _ConditionalLaws(model, atoms)
        fresh = _radial_groups(laws, laws.scalar_var)
        for (_, k, q, _), (k0, q0), (_, want, _) in zip(kept, groups, fresh):
            assert np.array_equal(k, k0) and np.array_equal(k, want)
            assert np.array_equal(q, q0)

    @pytest.mark.parametrize("dense", [False, True])
    def test_stream_stats_stack_equals_the_one_row_calls(self, dense, small_batches):
        # complex inputs: c_x takes x^H x, whose bits differ from sum |x|^2
        rng = np.random.default_rng(12)
        model = random_model(rng, 2, 2) if dense else ChannelModel.isotropic(3, 2, 0.5, 2.0)
        laws = _ConditionalLaws(model, self._atoms(rng, 2, 4))
        xs = np.array([[0j, 0j], [0.7 + 0.1j, -2.0j], [1.5 - 0.5j, 0.3 + 2.0j]])
        w, cfg = np.array([0.4, 0.3, 0.2, 0.1]), McConfig(1000, seed=5)
        small_batches(300)
        means, ses = laws.stream_stats(xs, w, cfg, 2)
        rows = [laws.stream_stats(xs[i:i + 1], w, cfg, 2) for i in range(len(xs))]
        assert means.tolist() == [m[0] for m, _ in rows]
        assert ses.tolist() == [s[0] for _, s in rows]

    @pytest.mark.parametrize("m", [1, 2])
    def test_dense_stream_stats_equal_a_two_pass_reference(self, m, small_batches):
        # four batches, the last one ragged: per-batch sums against the mean of all
        # samples, then the squared deviations from it
        rng = np.random.default_rng(30 + m)
        model = random_model(rng, m, 2)
        laws = _ConditionalLaws(model, self._atoms(rng, 2, 3))
        xs = np.array([[0j, 0j], [0.7 + 0.1j, -2.0j], [1.5 - 0.5j, 0.3 + 2.0j]])
        w, cfg = np.array([0.5, 0.3, 0.2]), McConfig(1000, seed=5)
        small_batches(300)
        draws = _stream_draws(m, False, cfg, 1)
        assert [d.shape[1] for d in draws] == [300, 300, 300, 100]
        means, ses = laws.stream_stats(xs, w, cfg, 1)
        for row, factor in enumerate(_conditional_covariances(model, xs)[1]):
            coef = laws._form_coefficients(factor)
            mix = np.concatenate([logsumexp(laws._log_densities(coef, d), axis=0, b=w[:, None])
                                  for d in draws])
            mean = math.fsum(mix) / mix.size
            se = math.sqrt(math.fsum((mix - mean) ** 2) / (mix.size - 1) / mix.size)
            assert means[row] == pytest.approx(mean, rel=1e-14, abs=0.0)
            assert ses[row] == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_stream_stats_peak_is_one_buffer_and_four_vectors(self, scalar_model, cold_draws):
        # 4 atoms x 20k samples: one (k, n) log-density buffer and at most four
        # n-vectors (mixture, shift, square and a spare), draws already cached
        laws = _ConditionalLaws(scalar_model, [[0j], [1.0 + 0j], [2.0 + 0j], [3.0 + 0j]])
        w, cfg = np.full(4, 0.25), McConfig(20_000, seed=3)
        laws.stream_stats([[1.0 + 0j]], w, cfg, 1)  # draws the stream into the cache
        tracemalloc.start()
        try:
            laws.stream_stats([[1.0 + 0j]], w, cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (4 + 4) * 20_000 * 8


def _retained_bytes(cache) -> int:
    return sum(draw.nbytes for draws, _ in cache.values() for draw in draws)


class TestStreamDraws:
    DENSE = random_model(np.random.default_rng(3), 2, 2)

    def test_cached_draws_are_read_only(self, scalar_model, small_batches):
        cfg = McConfig(1000, seed=3)
        small_batches(400)
        for model in (scalar_model, self.DENSE):
            for draw in _stream_draws(model.M, model.iso_var is not None, cfg, 0):
                with pytest.raises(ValueError):
                    draw[0] = 0

    def test_isotropic_batches_are_radii_alone(self, cold_draws, small_batches):
        # one read-only float64 array per batch, 8 bytes a sample: the stratum of a
        # sample is its position, not a stored id
        cfg = McConfig(1000, seed=3)
        small_batches(400)
        draws = _stream_draws(2, True, cfg, 0)
        assert all(type(d) is np.ndarray and d.dtype == np.float64 and not d.flags.writeable
                   for d in draws)
        assert [d.shape for d in draws] == [(400,), (400,), (200,)]
        assert [size for _, size in cold_draws.values()] == [8 * 1000]
        assert _retained_bytes(cold_draws) == 8 * 1000

    @pytest.mark.parametrize("dense", [False, True])
    def test_cold_warm_and_unkept_draws_agree(self, scalar_model, dense, cold_draws,
                                              monkeypatch, small_batches):
        # the cache changes which calls draw, never a value
        model = self.DENSE if dense else scalar_model
        atoms = np.zeros((3, model.N), dtype=complex)
        atoms[1:, 0] = [1.0 + 0.5j, 2.0]
        mu = DiscreteMeasure(atoms, [0.5, 0.3, 0.2])
        cfg = McConfig(2000, seed=11)
        small_batches(700)
        grid = radial_scan_grid(model, 12.0, points_per_decade=2, decades=2,
                                n_directions=1, seed=5)

        def results():
            report = kkt_scan(model, mu, KktContext(0.1, 1.0, 0.2), grid, cfg)
            return (mutual_information(model, mu, cfg),
                    [cross_term(model, mu, x, cfg) for x in (atoms[1], grid[3])],
                    [(p.value, p.std_error) for p in report.points + report.support])

        cold = results()
        assert cold_draws and results() == cold
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", 0)
        cold_draws.clear()
        assert results() == cold and not cold_draws

    def test_mutual_information_then_scan_draws_k_plus_one_streams(self, monkeypatch,
                                                                  cold_draws):
        # the scan's atom streams are the ones mutual_information drew
        model = self.DENSE
        atoms = np.array([[0j, 0j], [1.0 + 0.5j, -0.5j], [2.0, 1.0 + 1.0j]])
        mu = DiscreteMeasure(atoms, [0.5, 0.3, 0.2])
        cfg = McConfig(1000, seed=5)
        seeds = []
        draw = estimate._complex_standard_normals
        monkeypatch.setattr(estimate, "_complex_standard_normals",
                            lambda seed, *a: seeds.append(seed) or draw(seed, *a))
        mi = mutual_information(model, mu, cfg)
        grid = radial_scan_grid(model, 12.0, points_per_decade=4, decades=2,
                                n_directions=2, seed=5)
        kkt_scan(model, mu, KktContext(0.1, 1.0, max(mi.value, 0.0)), grid, cfg)
        assert len(seeds) == mu.n_atoms + 1 == len(set(seeds))

    def test_scan_takes_the_cached_streams_before_the_missing_ones(self, monkeypatch,
                                                                   cold_draws):
        # with room for 3 of 5 atom streams, mutual_information leaves streams 2-4;
        # in ascending order the scan's misses would evict each before its use
        model = self.DENSE
        rng = np.random.default_rng(8)
        atoms = np.array([np.zeros(2)] + [random_input(rng, 2) for _ in range(4)])
        mu = DiscreteMeasure(atoms, [0.2] * 5)
        cfg = McConfig(1000, seed=5)
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", 3 * 4 * 1000 * 8)
        seeds = []
        draw = estimate._complex_standard_normals
        monkeypatch.setattr(estimate, "_complex_standard_normals",
                            lambda seed, *a: seeds.append(seed) or draw(seed, *a))
        mi = mutual_information(model, mu, cfg)
        grid = radial_scan_grid(model, 12.0, points_per_decade=2, decades=1,
                                n_directions=1, seed=5)
        kkt_scan(model, mu, KktContext(0.1, 1.0, max(mi.value, 0.0)), grid, cfg)
        assert seeds == [derive_seed(cfg.seed, s, 0)
                         for s in (0, 1, 2, 3, 4, 1, 0, estimate._CROSS_STREAM)]

    def test_laws_hold_the_last_stream_the_cache_does_not_keep(self, monkeypatch,
                                                               cold_draws):
        laws = _ConditionalLaws(self.DENSE, np.zeros((1, 2)))
        cfg, x = McConfig(1000, seed=5), np.zeros((1, 2), dtype=complex)
        laws.stream_stats(x, [1.0], cfg, 0)
        assert laws._unkept is None and cold_draws
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", 0)
        laws.stream_stats(x, [1.0], cfg, 1)
        assert laws._unkept[0].shape == (4, 1000) and len(cold_draws) == 1
        laws.stream_stats(x, [1.0], cfg, 0)  # kept: nothing more to hold
        assert laws._unkept is None

    def test_retained_bytes_stay_within_the_budget(self, monkeypatch, cold_draws,
                                                   small_batches):
        cfg = McConfig(1000, seed=3)
        small_batches(400)
        stream_bytes = 4 * 1000 * 8  # (M^2, n) float64 monomials at M = 2
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", 2 * stream_bytes)
        for stream in range(5):
            _stream_draws(2, False, cfg, stream)
            assert _retained_bytes(cold_draws) <= 2 * stream_bytes
        assert [key[-1] for key in cold_draws] == [3, 4]
        _stream_draws(2, False, cfg, 3)  # a hit makes stream 3 the most recent
        _stream_draws(2, False, cfg, 0)
        assert [key[-1] for key in cold_draws] == [3, 0]
        # a stream larger than the budget is returned, not kept, and evicts nothing
        big = _stream_draws(2, False, McConfig(3000, seed=3), 0)
        assert [d.shape for d in big] == [(4, 400)] * 7 + [(4, 200)]
        assert [key[-1] for key in cold_draws] == [3, 0]

    @pytest.mark.parametrize("iso", [False, True])
    def test_recorded_bytes_are_the_draws_bytes(self, iso, cold_draws, small_batches):
        # the size a miss evicts room for before it draws is the size of what it drew
        cfg = McConfig(1000, seed=3)
        small_batches(400)
        _stream_draws(2, iso, cfg, 0)
        assert [size for _, size in cold_draws.values()] == [_retained_bytes(cold_draws)]

    @pytest.mark.parametrize("iso", [False, True])
    def test_a_miss_makes_room_before_it_draws(self, monkeypatch, cold_draws, iso,
                                               small_batches):
        # three M = 2 streams fill the cache; the fourth evicts the oldest before it
        # forms its arrays, so the cache and the stream being drawn never hold more
        # than the budget
        cfg = McConfig(1000, seed=3)
        small_batches(400)
        stream_bytes = 1000 * (8 if iso else 4 * 8)
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", 3 * stream_bytes)
        for stream in range(3):
            _stream_draws(2, iso, cfg, stream)
        retained = []
        name = "_stratified_radii_sq" if iso else "_monomials"
        draw = getattr(estimate, name)
        monkeypatch.setattr(estimate, name,
                            lambda *a: retained.append(_retained_bytes(cold_draws)) or draw(*a))
        _stream_draws(2, iso, cfg, 3)
        assert len(retained) == 3 and max(retained) <= 2 * stream_bytes
        assert [key[-1] for key in cold_draws] == [1, 2, 3]

    def test_concurrent_callers_keep_the_budget(self, monkeypatch, cold_draws, small_batches):
        cfg = McConfig(200, seed=4)
        small_batches(90)
        want = {s: [d.copy() for d in _stream_draws(2, False, cfg, s)] for s in range(6)}
        cold_draws.clear()
        budget = 3 * 4 * 200 * 8
        monkeypatch.setattr(estimate, "_DRAW_BUDGET", budget)
        errors = []

        def caller(offset):
            for i in range(150):
                stream = (offset + i * 5) % 6
                got = _stream_draws(2, False, cfg, stream)
                if not all(np.array_equal(g, w) for g, w in zip(got, want[stream])):
                    errors.append(stream)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert _retained_bytes(cold_draws) <= budget
        assert sum(size for _, size in cold_draws.values()) == _retained_bytes(cold_draws)


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
        assert first.shape == (1000,) and np.array_equal(first, again)


class TestGaussLegendreRule:
    def test_constants_are_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss
        for got, want in zip((estimate._GL_NODES, estimate._GL_WEIGHTS), leggauss(12)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestDenseKernel:
    @staticmethod
    def _atoms(rng, model, norms_sq):
        dirs = np.array([random_input(rng, model.N) for _ in norms_sq])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return np.sqrt(norms_sq)[:, None] * dirs

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (1, 3), (4, 2)])
    def test_matches_triangular_solve(self, m, n, small_batches):
        # the quadratic-form (k, n) log densities against ConditionalCovariance's
        # triangular solves on the very same outputs y = L_x w
        rng = np.random.default_rng(100 * m + n)
        model = random_model(rng, m, n)
        atoms = self._atoms(rng, model, np.geomspace(1e-3, 1e6, 10))
        laws = _ConditionalLaws(model, atoms)
        covs = [conditional_covariance(model, a) for a in atoms]
        cfg = McConfig(1000, seed=4)
        small_batches(300)
        inputs = [np.zeros(n, dtype=complex), atoms[0], atoms[-1],
                  random_input(rng, n), random_input(rng, n, scale=300.0)]
        for stream, x in enumerate(inputs):
            factor = conditional_covariance(model, x).factor
            coef = laws._form_coefficients(factor)
            batches = [laws._log_densities(coef, monomials)
                       for monomials in _stream_draws(m, False, cfg, stream)]
            assert len(batches) == 4
            for b, logp in enumerate(batches):
                w = _complex_standard_normals(derive_seed(cfg.seed, stream, b),
                                              logp.shape[1], m)
                ref = np.array([c.log_densities(w @ factor.T) for c in covs])
                assert logp.shape == (10, w.shape[0])
                np.testing.assert_allclose(logp, ref, rtol=1e-12, atol=0.0)

    @staticmethod
    def _monomials_reference(w):
        # |w_p|^2 rows, then Re and Im of conj(w_p) w_q, p < q, as separate arrays
        w = w.T
        p, q = np.triu_indices(w.shape[0], 1)
        cross = w[p].conj() * w[q]
        return np.concatenate((w.real ** 2 + w.imag ** 2, cross.real, cross.imag))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_draws_are_the_monomials_of_the_complex_normals(self, m, small_batches):
        cfg = McConfig(1000, seed=4)
        small_batches(300)
        draws = _stream_draws(m, False, cfg, 3)
        assert len(draws) == 4
        for b, draw in enumerate(draws):
            w = _complex_standard_normals(derive_seed(cfg.seed, 3, b), draw.shape[1], m)
            assert draw.shape == (m * m, w.shape[0])
            assert np.array_equal(draw, self._monomials_reference(w))
            with pytest.raises(ValueError):
                draw[0, 0] = 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 300, 20_000])
    def test_monomials_equal_the_reference_bit_for_bit(self, m, n):
        # 20_000 draws put the cross products past numpy's temporary elision
        w = _complex_standard_normals(derive_seed(9, m, n), n, m)
        assert np.array_equal(_monomials(w), self._monomials_reference(w))

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

    def test_near_isotropic_mass_matches_mpmath(self):
        # a hair of anisotropy takes the hypoexponential path: exact against the
        # partial-fraction oracle, and within 1e-6 of the unperturbed radial value
        sigma = np.diag([1.0, 1.0 + 1e-6])
        model = ChannelModel(2, 1, 1.0, sigma[:2, :2])
        x = [2.0 + 0j]
        shell = OutputShell(1.0, 3.0)
        est = shell_probability(model, x, shell, McConfig(50_000, seed=3))
        iso = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        exact = shell_probability(iso, x, shell, McConfig(1000, seed=1))
        ref = hypoexponential_shell_mass([1.0, 1.0 + 1e-6], 1.0, math.log(2.0), 0.0,
                                         math.log(3.0))
        assert est.std_error == 0.0 and est.samples == 0
        assert abs(est.value - ref) <= 1e-15
        assert abs(est.value - exact.value) <= 1e-6

    def test_partition_sums_to_one_exact_path(self, scalar_model):
        x = [3.0 + 0j]
        edges = [0.0, 1.0, 4.0, 9.0, math.inf]
        cfg = McConfig(1000, seed=1)
        total = sum(shell_probability(scalar_model, x,
                                      OutputShell(a, b), cfg).value
                    for a, b in zip(edges[:-1], edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_partition_sums_to_one_dense_path(self):
        sigma = np.diag([1.0, 1.5])
        model = ChannelModel(2, 1, 1.0, sigma)
        x = [1.0 + 0j]
        edges = [0.0, 1.0, 2.5, math.inf]
        cfg = McConfig(30_000, seed=4)
        ests = [shell_probability(model, x, OutputShell(a, b), cfg)
                for a, b in zip(edges[:-1], edges[1:])]
        assert all(e.std_error == 0.0 and e.samples == 0 for e in ests)
        assert abs(sum(e.value for e in ests) - 1.0) <= 1e-14
        with np.errstate(divide="ignore"):
            log_edges = np.log(edges)
        for e, lr1, lr2 in zip(ests, log_edges[:-1], log_edges[1:]):
            assert abs(e.value - hypoexponential_shell_mass([1.0, 1.5], 1.0, 0.0,
                                                            lr1, lr2)) <= 1e-15

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

    @pytest.mark.parametrize("dense", [False, True])
    def test_inputs_past_the_square_range(self, scalar_model, dense):
        # x = s e0 against [s/2, 2s): noise is negligible from s = 1e20 up, so the
        # mass is that of s = 1e20, also where ||x||^2 is past double range
        model = TestStreamDraws.DENSE if dense else scalar_model
        cfg = McConfig(1000, seed=1)

        def mass(s):
            x = np.zeros(model.N, dtype=complex)
            x[0] = s
            return shell_probability(model, x, OutputShell(s / 2, 2 * s), cfg).value

        want = mass(1e20)
        assert 0.0 < want < 1.0
        for s in (1e155, 1e300):
            assert mass(s) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestHypoexponentialShells:
    @staticmethod
    def _masses(M, N, d, log_norm, fractions, sigma_rest=2.0):
        """Masses of the shells between fractions of E||y||^2 along e0 of a diagonal
        Sigma whose (m, 0) entries are d: D(e0) = diag(d) exactly."""
        sigma = np.full(M * N, sigma_rest)
        sigma[::N] = d
        model = ChannelModel(M, N, 1.0, np.diag(sigma).astype(complex))
        log_mean = float(np.logaddexp.reduce(np.logaddexp(0.0, np.log(d) + 2.0 * log_norm)))
        with np.errstate(divide="ignore"):
            edges = 0.5 * (np.log(fractions) + log_mean)
        log_rho = np.column_stack((edges[:-1], edges[1:]))
        k = len(log_rho)
        dirs = np.zeros((k, N), complex)
        dirs[:, 0] = 1.0
        got = _shell_probabilities(model, dirs, np.full(k, log_norm), log_rho,
                                   McConfig(1000, seed=1))
        return got, log_rho

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("M, N", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_masses_match_partial_fractions(self, M, N, gap):
        # relative eigenvalue gaps of D(u) from 1e-2 to 1e-12, and ln ||x|| from -1 to
        # 87, where ratios of eigenvalues taken from their logs would be 2e-14 off
        pytest.importorskip("mpmath")
        d = 1.0 + gap * np.arange(M) * (1.0 + 0.5 * np.arange(M))
        fractions = [0.0, 0.05, 0.3, 0.7, 1.0, 1.3, 2.0, 4.0, 8.0, math.inf]
        for log_norm in (-1.0, 0.0, 3.0, 40.0, 87.0):
            got, log_rho = self._masses(M, N, d, log_norm, fractions)
            assert abs(sum(e.value for e in got) - 1.0) <= 1e-14
            for est, (lr1, lr2) in zip(got, log_rho):
                ref = hypoexponential_shell_mass(d, 1.0, log_norm, lr1, lr2)
                assert est.std_error == 0.0 and est.samples == 0
                assert type(est.value) is float
                assert abs(est.value - ref) <= 1e-15, (log_norm, lr1, lr2)

    def test_condition_number_1e3(self, record_property):
        # kappa(Sigma) = 1e3: G has mean up to M kappa, so the sums run to a few
        # thousand Poisson terms; the time is recorded, not bounded
        pytest.importorskip("mpmath")
        d = np.array([1.0, 30.0, 1000.0])
        fractions = [0.0, 0.01, 0.3, 1.0, 3.0, 10.0, math.inf]
        start = time.perf_counter()
        got, log_rho = self._masses(3, 1, d, 1.0, fractions)
        seconds = time.perf_counter() - start
        record_property("seconds", seconds)
        print(f"kappa 1e3: {len(got)} shell masses in {seconds * 1e3:.1f} ms")
        for est, (lr1, lr2) in zip(got, log_rho):
            assert abs(est.value - hypoexponential_shell_mass(d, 1.0, 1.0, lr1, lr2)) <= 1e-15


class TestBatchedShells:
    def test_equals_one_call_per_input(self):
        model = random_model(np.random.default_rng(11), 2, 2)
        rng = np.random.default_rng(12)
        xs = np.array([np.zeros(2, complex)] + [random_input(rng, 2, scale=s)
                                                 for s in (0.5, 2.0, 10.0)])
        shells = [OutputShell(0.5, 2.0), OutputShell(1.0, 3.0),
                  OutputShell(2.0, math.inf), OutputShell(5.0, 20.0)]
        cfg = McConfig(1000, seed=4)
        # polar form as shell_probability takes it: unit directions (e0 at the
        # origin), ln ||x||, log radii
        dirs, log_norms = (np.array(v) for v in zip(*map(_polar, xs)))
        batched = _shell_probabilities(model, dirs, log_norms,
                                       np.log([[s.rho1, s.rho2] for s in shells]), cfg)
        single = [shell_probability(model, x, s, cfg) for x, s in zip(xs, shells)]
        assert batched == single
        assert all(e.std_error == 0.0 and e.samples == 0 for e in batched)
        assert all(0.0 < e.value < 1.0 for e in batched)


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
