import math

import numpy as np
import pytest

from fading_capacity import (ChannelModel, McConfig, OutputShell, ScaleOverflowError,
                             build_construction, detection_report,
                             estimate, find_sufficient_K, lambda_constant,
                             mutual_information, shell_probability)
from oracles import hypoexponential_shell_mass

CFG = McConfig(samples=5000, seed=33)


def model_with_eigs(eigs, M, N, noise_var=1.0):
    return ChannelModel(M, N, noise_var, np.diag(eigs).astype(complex))


class TestLambdaConstant:
    def test_scalar_value(self, scalar_model):
        paper, impl = lambda_constant(scalar_model)
        expected = 0.5 * math.exp(-2.0)
        assert paper == pytest.approx(expected, abs=1e-12)
        assert impl == pytest.approx(expected, abs=1e-12)

    def test_equal_eigenvalues_coincide(self):
        model = ChannelModel.isotropic(2, 1, 1.0, 1.5)
        paper, impl = lambda_constant(model)
        assert paper == pytest.approx(impl, rel=1e-14)

    def test_eigenvalue_ratio_power(self):
        model = model_with_eigs([1.0, 2.0], M=2, N=1)
        paper, impl = lambda_constant(model)
        assert impl == pytest.approx(paper / 2.0, rel=1e-12)

    @pytest.mark.parametrize("m", [3, 20, 100])
    def test_factorial_taken_in_logs(self, m):
        paper, _ = lambda_constant(ChannelModel.isotropic(m, 1, 1.0, 1.0))
        assert paper == pytest.approx(0.5 * math.exp(-2.0) / math.factorial(m - 1),
                                      rel=1e-12)


class TestBuildConstruction:
    def test_degenerate_base(self, scalar_model):
        fc = build_construction(scalar_model, n=2, K=1.0)
        assert np.allclose(fc.log_k, 0.0)
        assert np.allclose(np.diff(fc.log_r), 0.0)
        report = detection_report(scalar_model, fc, CFG)
        assert all(d.value == pytest.approx(0.0, abs=1e-15)
                   for d in report.detections)
        assert not report.meets_lambda

    def test_spot_values_n2_k2(self, scalar_model):
        fc = build_construction(scalar_model, n=2, K=2.0)
        assert np.exp(fc.log_k[0]) == pytest.approx(4.0, rel=1e-12)
        assert np.exp(fc.log_k[1]) == pytest.approx(16.0, rel=1e-12)
        assert np.exp(fc.log_r[0]) == pytest.approx(math.sqrt(2) * 4, rel=1e-12)
        assert np.exp(fc.log_r[1]) == pytest.approx(math.sqrt(2) * 16, rel=1e-12)
        assert np.exp(fc.log_r[2]) == pytest.approx(math.sqrt(2) * 256, rel=1e-12)
        t11 = math.exp(fc.log_a[0] + 2 * fc.log_r[0])
        t12 = math.exp(fc.log_a[0] + 2 * fc.log_r[1])
        assert t11 == pytest.approx(32.0 / 17.0, rel=1e-12)
        assert t12 == pytest.approx(512.0 / 17.0, rel=1e-12)

    def test_shells_strictly_ordered_for_k_above_one(self, scalar_model):
        fc = build_construction(scalar_model, n=3, K=1.5)
        assert np.all(np.diff(fc.log_k) > 0)
        assert np.all(np.diff(fc.log_r) > 0)

    def test_detection_exponent_at_least_one(self, scalar_model):
        for K in (1.0, 1.3, 4.0):
            fc = build_construction(scalar_model, n=2, K=K)
            t = np.exp(fc.log_a + 2 * fc.log_r[:-1])
            assert np.all(t >= 1.0 - 1e-12)

    def test_large_M_underflows_lambda(self):
        # (M-1)! is past double range from M = 172 on; lambda is then 0
        fc = build_construction(ChannelModel.isotropic(200, 1, 1.0, 1.0), n=2, K=2.0)
        assert fc.lambda_paper == fc.lambda_impl == 0.0
        assert np.all(np.isfinite(fc.f_values))

    def test_scale_cap_enforced(self, scalar_model):
        with pytest.raises(ScaleOverflowError):
            build_construction(scalar_model, n=8, K=2.0)

    def test_input_validation(self, scalar_model):
        with pytest.raises(ValueError):
            build_construction(scalar_model, n=0, K=2.0)
        with pytest.raises(ValueError):
            build_construction(scalar_model, n=1, K=0.5)
        with pytest.raises(ValueError):
            build_construction(scalar_model, n=1, K=2.0,
                               direction=[2.0 + 0j])

    def test_nan_scale_and_fractional_count_rejected(self, scalar_model):
        # K = nan built an all-NaN construction; n = 2.5 raised an untyped TypeError
        with pytest.raises(ValueError, match="K must be >= 1"):
            build_construction(scalar_model, n=1, K=math.nan)
        for n in (2.5, True):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                build_construction(scalar_model, n=n, K=2.0)


class TestDetectionReport:
    def test_scalar_n1_k2_exact(self, scalar_model):
        fc = build_construction(scalar_model, n=1, K=2.0)
        report = detection_report(scalar_model, fc, CFG)
        expected = math.exp(-32.0 / 17.0) - math.exp(-512.0 / 17.0)
        assert report.detections[0].std_error == 0.0
        assert report.detections[0].value == pytest.approx(expected, abs=1e-12)
        # F(K) = 1 for equal extreme eigenvalues, so the bound is tight
        assert report.bounds[0] == pytest.approx(expected, abs=1e-12)
        assert report.min_detection >= report.lambda_impl
        assert report.meets_lambda

    def test_scalar_n1_k2_margins(self, scalar_model):
        fc = build_construction(scalar_model, n=1, K=2.0)
        report = detection_report(scalar_model, fc, CFG, include_mi=False)
        expected = math.exp(-32.0 / 17.0) - math.exp(-512.0 / 17.0)
        margin = expected - 0.5 * math.exp(-2.0)  # lambda_paper = lambda_impl at M = 1
        assert report.margins_impl == pytest.approx((margin,), abs=1e-12)
        assert report.margins_paper == pytest.approx((margin,), abs=1e-12)
        assert report.construction.log_cap_headroom == pytest.approx(
            700.0 - 2.0 * math.log(2.0), rel=1e-15)

    def test_detection_beats_bound_everywhere(self, scalar_model):
        rng = np.random.default_rng(0)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            K = float(rng.uniform(1.1, 6.0))
            fc = build_construction(scalar_model, n=n, K=K)
            report = detection_report(scalar_model, fc, CFG)
            for det, bnd in zip(report.detections, report.bounds):
                assert det.value >= bnd - 3 * det.std_error - 1e-12

    def test_anisotropic_detections_are_exact(self):
        model = model_with_eigs([0.8, 1.4], M=2, N=1)
        fc = build_construction(model, n=2, K=2.0)
        report = detection_report(model, fc, McConfig(samples=20_000, seed=9))
        assert all(d.std_error == 0.0 and d.samples == 0 for d in report.detections)
        for det, bnd in zip(report.detections, report.bounds):
            assert det.value >= bnd
        for i, det in enumerate(report.detections):
            ref = hypoexponential_shell_mass([0.8, 1.4], 1.0, fc.log_k[i], fc.log_r[i],
                                             fc.log_r[i + 1])
            assert abs(det.value - ref) <= 1e-15

    @pytest.mark.parametrize("n, K", [(2, 2.0), (3, 4.0)])
    @pytest.mark.parametrize("model", [
        ChannelModel.isotropic(1, 1, 1.0, 1.0),
        ChannelModel.isotropic(3, 2, 1.0, 1.0),
        # I_2 kron diag(0.8, 1.4): C(x) is scalar along e0 though M = N = 2
        model_with_eigs([0.8, 1.4, 0.8, 1.4], M=2, N=2),
    ], ids=["scalar", "iso3x2", "kron2x2"])
    def test_detections_are_shell_probabilities(self, model, n, K):
        fc = build_construction(model, n=n, K=K)
        report = detection_report(model, fc, CFG, include_mi=False)
        radii = np.exp(fc.log_r)
        for i, (det, x) in enumerate(zip(report.detections, fc.atoms())):
            want = shell_probability(model, x, OutputShell(radii[i], radii[i + 1]), CFG)
            assert det == want and det.std_error == 0.0

    def test_dense_detection_needs_no_representable_atoms(self):
        # n 2^n ln K = 691 passes the construction cap, and the atom K^2 has
        # ||x||^2 = 1e600: past double range, but no shell mass leaves logs
        model = model_with_eigs([0.8, 1.4], M=2, N=1)
        fc = build_construction(model, n=1, K=1e150)
        report = detection_report(model, fc, CFG)
        det = report.detections[0]
        assert report.mutual_info is None and det.std_error == 0.0
        ref = hypoexponential_shell_mass([0.8, 1.4], 1.0, fc.log_k[0], fc.log_r[0], fc.log_r[1])
        assert 0.0 < det.value < 1.0 and abs(det.value - ref) <= 1e-15
        iso = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        report = detection_report(iso, build_construction(iso, n=1, K=1e150), CFG)
        assert 0.0 < report.detections[0].value < 1.0

    def test_dense_detections_draw_no_normals(self, monkeypatch, cold_draws):
        model = model_with_eigs([0.8, 1.4], M=2, N=1)
        fc = build_construction(model, n=3, K=2.0)

        def no_draws(*args):
            raise AssertionError("a shell mass drew normals")

        monkeypatch.setattr(estimate, "_phase_free_monomials", no_draws)
        report = detection_report(model, fc, McConfig(1000, seed=9),
                                  include_mi=False)
        assert len(report.detections) == 3
        assert all(d.std_error == 0.0 and d.samples == 0 for d in report.detections)

    def test_mutual_information_grows_with_n(self, scalar_model):
        K = find_sufficient_K(scalar_model, 3, CFG)
        values = []
        for n in (1, 2, 3):
            fc = build_construction(scalar_model, n=n, K=K)
            rep = detection_report(scalar_model, fc,
                                   McConfig(samples=20_000, seed=1))
            values.append(rep.mutual_info)
        assert abs(values[0].value) <= 3 * values[0].std_error + 1e-6
        for a, b in zip(values, values[1:]):
            assert b.value > a.value - 3 * math.hypot(a.std_error, b.std_error)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("model", [ChannelModel.isotropic(1, 1, 1.0, 1.0),
                                       ChannelModel.isotropic(3, 2, 1.0, 1.0)],
                             ids=["scalar", "iso3x2"])
    def test_isotropic_mutual_information_is_exact(self, model, n):
        # at K = 1e3 the atoms' output laws barely overlap: I is ln n to 1e-8
        report = detection_report(model, build_construction(model, n, 1e3), CFG)
        mi = report.mutual_info
        assert abs(mi.value - math.log(n)) <= 1e-8
        assert mi.std_error == 0.0 and mi.samples == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("model", [ChannelModel.isotropic(1, 1, 1.0, 1.0),
                                       ChannelModel.isotropic(3, 2, 1.0, 1.0)],
                             ids=["scalar", "iso3x2"])
    def test_isotropic_mutual_information_matches_monte_carlo(self, model, n):
        fc = build_construction(model, n, 2.0)
        cfg = McConfig(samples=20_000, seed=1)
        exact = detection_report(model, fc, cfg).mutual_info.value
        mc = mutual_information(model, fc.measure(), cfg)
        assert abs(exact - mc.value) <= 3.0 * mc.std_error

    def test_dense_mutual_information_is_monte_carlo(self):
        model = model_with_eigs([0.8, 1.4], M=2, N=1)
        fc = build_construction(model, n=2, K=2.0)
        report = detection_report(model, fc, CFG)
        assert report.mutual_info == mutual_information(model, fc.measure(), CFG)

    def test_mutual_information_at_the_largest_scale(self, scalar_model):
        # n 2^n ln K = 696: the atoms K^2, K^4 = e^174, e^348 still fit in doubles
        fc = build_construction(scalar_model, n=2, K=math.exp(87.0))
        report = detection_report(scalar_model, fc, CFG)
        assert abs(report.mutual_info.value - math.log(2)) <= 1e-10

    def test_fano_floor_reported(self, scalar_model):
        fc = build_construction(scalar_model, n=3, K=4.0)
        report = detection_report(scalar_model, fc, CFG, include_mi=False)
        assert report.mutual_info is None
        assert report.fano_lower_bound == pytest.approx(
            report.lambda_impl * math.log(3) - 1.0, rel=1e-12)

    def test_average_power_grows_with_k(self, scalar_model):
        p = [detection_report(scalar_model,
                              build_construction(scalar_model, 2, K),
                              CFG, include_mi=False).average_power
             for K in (2.0, 4.0)]
        assert p[1] > p[0]


class TestLimits:
    def test_scalar_limits_monotone(self, scalar_model):
        # a_1 r_1^2 -> (noise + lambda_min)/lambda_min = 2; F(K_1) == 1 for M=1
        targets = []
        for K in (2.0, 2.0 ** 4, 2.0 ** 8):
            fc = build_construction(scalar_model, n=1, K=K)
            targets.append(math.exp(fc.log_a[0] + 2 * fc.log_r[0]))
            assert fc.f_values[0] == pytest.approx(1.0, abs=1e-12)
        assert targets[0] < targets[1] < targets[2] <= 2.0
        assert abs(targets[2] - 2.0) <= 1e-6

    def test_anisotropic_f_limit(self):
        model = model_with_eigs([1.0, 2.0], M=2, N=1)
        limit = (model.lambda_min / model.lambda_max) ** 2 / math.gamma(2)
        gaps = []
        for K in (2.0, 2.0 ** 4, 2.0 ** 8):
            fc = build_construction(model, n=1, K=K)
            gaps.append(abs(fc.f_values[0] - limit))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-6


class TestFindSufficientK:
    def test_scalar_n1(self, scalar_model):
        assert find_sufficient_K(scalar_model, 1, CFG) == 2.0

    def test_self_audit(self, scalar_model):
        K = find_sufficient_K(scalar_model, 3, CFG)
        report = detection_report(scalar_model,
                                  build_construction(scalar_model, 3, K),
                                  CFG, include_mi=False)
        assert report.min_detection >= report.lambda_impl

    def test_cap_overflow(self, scalar_model):
        with pytest.raises(ScaleOverflowError):
            find_sufficient_K(scalar_model, 9, CFG)
