import math

import numpy as np
import pytest

from fading_capacity import (ChannelModel, ConfigError, InvalidCovarianceError,
                             conditional_covariance, conditional_entropy,
                             eigen_bounds, log_density, sample_output)
from fading_capacity.channel import _complex_standard_normals
from fading_capacity.estimate import derive_seed
from conftest import random_hermitian_pd, random_input, random_model
from oracles import charpoly_eigenvalues, importance_normalization, \
    kron_conditional_covariance, mp_mixture_log_density

LOG_PI = math.log(math.pi)


class TestEigenBounds:
    def test_identity(self):
        lo, hi = eigen_bounds(np.eye(4))
        assert lo == pytest.approx(1.0, abs=1e-14)
        assert hi == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        lo, hi = eigen_bounds(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(4.0))

    def test_matches_characteristic_polynomial_bisection(self):
        rng = np.random.default_rng(314)
        for _ in range(5):
            sigma = random_hermitian_pd(rng, 3)
            lo, hi = eigen_bounds(sigma)
            roots = charpoly_eigenvalues(sigma)
            assert lo == pytest.approx(roots[0], abs=1e-9)
            assert hi == pytest.approx(roots[-1], abs=1e-9)

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidCovarianceError):
            eigen_bounds(bad)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidCovarianceError):
            eigen_bounds(np.diag([1.0, -0.5]))
        with pytest.raises(InvalidCovarianceError):
            ChannelModel(1, 2, 1.0, np.diag([1.0, 0.0]))


class TestConditionalCovariance:
    def test_zero_input_gives_noise_floor(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 3, 2, noise_var=0.7)
        cov = conditional_covariance(model, np.zeros(2, dtype=complex))
        assert np.allclose(cov.matrix, 0.7 * np.eye(3), atol=1e-14)
        assert cov.log_det == pytest.approx(3 * math.log(0.7), abs=1e-12)

    def test_isotropic_reduces_to_scaled_identity(self):
        model = ChannelModel.isotropic(2, 3, 0.5, 2.0)
        x = np.array([1.0, 1j, -1.0])
        cov = conditional_covariance(model, x)
        c = 0.5 + 2.0 * 3.0
        assert np.allclose(cov.matrix, c * np.eye(2), atol=1e-12)

    def test_matches_naive_kronecker_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model = random_model(rng, 2, 2)
            x = random_input(rng, 2)
            cov = conditional_covariance(model, x)
            naive = kron_conditional_covariance(model.sigma, x, 2, 2,
                                                model.noise_var)
            assert np.max(np.abs(cov.matrix - naive)) <= 1e-12

    def test_eigenvalue_sandwich(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = random_model(rng, M, N)
            x = random_input(rng, N, scale=float(rng.uniform(0.1, 5.0)))
            t = float(np.real(np.vdot(x, x)))
            eigs = np.linalg.eigvalsh(conditional_covariance(model, x).matrix)
            lo = model.noise_var + model.lambda_min * t
            hi = model.noise_var + model.lambda_max * t
            assert np.all(eigs >= lo * (1 - 1e-9))
            assert np.all(eigs <= hi * (1 + 1e-9))

    def test_dimension_mismatch(self):
        model = ChannelModel.isotropic(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            conditional_covariance(model, np.zeros(3, dtype=complex))


class TestLogDensity:
    def test_standard_gaussian_at_origin(self, scalar_model):
        assert log_density(scalar_model, [0j], [0j]) == pytest.approx(-LOG_PI,
                                                                      abs=1e-12)

    def test_scalar_isotropic_spot_value(self, scalar_model):
        # c = 1 + 1*|2|^2 = 5
        got = log_density(scalar_model, [1.0 + 0j], [2.0 + 0j])
        assert got == pytest.approx(-1.0 / 5.0 - math.log(5 * math.pi), abs=1e-12)

    def test_normalization_by_importance_sampling(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 2, 2)
        x = random_input(rng, 2)
        est, se = importance_normalization(model, x, samples=40_000, seed=99)
        assert abs(est - 1.0) <= 3.0 * se

    def test_isotropic_law_depends_on_norm_only(self):
        model = ChannelModel.isotropic(2, 2, 1.0, 0.8)
        rng = np.random.default_rng(5)
        x = random_input(rng, 2)
        # unitary rotation of x preserves the norm
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) * phase
        x2 = u @ x
        y = random_input(rng, 2)
        assert log_density(model, y, x) == pytest.approx(
            log_density(model, y, x2), abs=1e-12)


    def test_dense_matches_mpmath(self):
        # -y^H C^{-1} y - M ln pi - ln det C in 40 digits, C from the Kronecker loops
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 2)
        x, y = random_input(rng, 2), random_input(rng, 3)
        cov = kron_conditional_covariance(model.sigma, x, 3, 2, model.noise_var)
        want = mp_mixture_log_density([cov], [1.0], y)
        assert log_density(model, y, x) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_rejects_several_outputs(self):
        # only the first row was evaluated, and the second silently dropped
        model = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="one vector"):
            log_density(model, [[0.1, 0.2], [5.0, 5.0]], [1.0])

    def test_rejects_non_finite_output(self):
        model = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            log_density(model, [0.1, math.nan], [1.0])


class TestSampleOutput:
    def test_deterministic_for_fixed_seed(self, scalar_model):
        a = sample_output(scalar_model, [1.0 + 0j], 64, seed=77)
        b = sample_output(scalar_model, [1.0 + 0j], 64, seed=77)
        assert np.array_equal(a, b)

    def test_empirical_covariance_at_zero_input(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 2, noise_var=1.3)
        y = sample_output(model, np.zeros(2, dtype=complex), 100_000, seed=5)
        emp = y.T.conj() @ y / y.shape[0]
        target = 1.3 * np.eye(2)
        rel = np.linalg.norm(emp.T - target) / np.linalg.norm(target)
        assert rel <= 0.05

    def test_empirical_second_moment_isotropic(self):
        model = ChannelModel.isotropic(2, 2, 1.0, 1.0)
        x = np.array([np.sqrt(2.0), np.sqrt(2.0)], dtype=complex)  # ||x||^2 = 4
        y = sample_output(model, x, 100_000, seed=8)
        per_coord = np.mean(np.abs(y) ** 2, axis=0)
        assert np.all(np.abs(per_coord - 5.0) <= 0.25)

    def test_count_validation(self, scalar_model):
        with pytest.raises(ValueError):
            sample_output(scalar_model, [0j], 0, seed=1)

    @pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
    def test_count_must_be_an_integer(self, scalar_model, count):
        # 2.5 drew 2 samples
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sample_output(scalar_model, [0j], count, seed=1)

    @pytest.mark.parametrize("shape", [(20_000, 2), (7, 1), (5, 3)])
    def test_complex_normals_equal_the_complex_expression(self, shape):
        # filled in place, the draws must equal (a + 1j b) sqrt(1/2) bit for bit
        rng = np.random.default_rng(derive_seed(9, *shape))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        want = (a + 1j * b) * math.sqrt(0.5)
        got = _complex_standard_normals(derive_seed(9, *shape), *shape)
        assert got.dtype == np.complex128 and got.shape == shape
        assert np.array_equal(got.view(float), want.view(float))


class TestConditionalEntropy:
    def test_zero_input_scalar(self, scalar_model):
        assert conditional_entropy(scalar_model, [0j]) == pytest.approx(
            math.log(math.pi * math.e), abs=1e-12)

    def test_isotropic_two_dim(self):
        model = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        x = [2.0 + 0j]  # c = 1 + 4 = 5
        assert conditional_entropy(model, x) == pytest.approx(
            2 * math.log(math.pi * math.e * 5.0), abs=1e-12)

    def test_against_monte_carlo_entropy(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 2, 2)
        x = random_input(rng, 2)
        cov = conditional_covariance(model, x)
        y = sample_output(model, x, 100_000, seed=12)
        vals = -cov.log_densities(y)
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(est - conditional_entropy(model, x)) <= 3 * se

    def test_nondecreasing_along_ray(self):
        rng = np.random.default_rng(29)
        model = random_model(rng, 2, 2)
        u = random_input(rng, 2)
        u /= np.linalg.norm(u)
        values = [conditional_entropy(model, r * u) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestJsonInterface:
    def test_isotropic_roundtrip(self):
        model = ChannelModel.from_json(
            {"M": 2, "N": 1, "noise_var": 0.5,
             "sigma": {"type": "isotropic", "var": 2.0}})
        assert model.iso_var == pytest.approx(2.0)
        assert model.lambda_min == pytest.approx(2.0)

    def test_dense(self):
        re = [[2.0, 0.1], [0.1, 1.0]]
        im = [[0.0, 0.2], [-0.2, 0.0]]
        model = ChannelModel.from_json(
            {"M": 1, "N": 2, "noise_var": 1.0,
             "sigma": {"type": "dense", "re": re, "im": im}})
        assert model.iso_var is None
        assert model.lambda_min > 0

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="sigma"):
            ChannelModel.from_json({"M": 1, "N": 1, "noise_var": 1.0,
                                    "sigma": {"type": "sparse"}})

    @pytest.mark.parametrize("fields, path", [
        ({"M": 2.7}, r"^M: expected an integer, got float"),
        ({"N": True}, r"^N: expected an integer, got bool"),
        ({"noise_var": "1.5"}, r"^noise_var: expected a number, got str"),
        ({"noise_var": 10 ** 400}, r"^noise_var: expected a finite number, got inf"),
        ({"sigma": {"type": "isotropic", "var": "2"}}, r"^sigma\.var: "),
        ({"sigma": {"type": "dense", "re": [[2.0, "1.0"], [1.0, 2.0]]}}, r"^sigma\.re\[0\]\[1\]: "),
        ({"sigma": {"type": "dense", "re": [[2.0, 0.0], [1.0]]}}, r"^sigma\.re\[1\]: "),
        ({"sigma": {"type": "dense", "re": [[2.0, 0.0], [0.0, 2.0]], "im": [[0.0]]}},
         r"^sigma\.im: "),
        ({"sigma": {"type": "dense", "re": [[2.0, 0.0]]}}, r"^sigma\.re: expected 2 rows"),
        ({"sigma": "isotropic"}, r"^sigma: "),
    ], ids=["M-float", "N-bool", "noise-var-string", "noise-var-huge", "var-string",
            "dense-entry-string", "ragged-rows", "im-shape", "too-few-rows",
            "sigma-not-an-object"])
    def test_malformed_field_is_config_error(self, fields, path):
        # each was accepted (M = 2, N = 1, strings as numbers, im broadcast) or raised
        # something else (numpy's ValueError, OverflowError) before from_json checked it
        obj = {"M": 1, "N": 2, "noise_var": 1.0,
               "sigma": {"type": "isotropic", "var": 1.0}, **fields}
        with pytest.raises(ConfigError, match=path):
            ChannelModel.from_json(obj)

    def test_every_malformed_scalar_field_is_rejected(self):
        with pytest.raises(ConfigError, match="^M: "):
            ChannelModel.from_json({"M": 2.7, "N": True, "noise_var": "1.5",
                                    "sigma": {"type": "isotropic", "var": "2"}})

    def test_object_required(self):
        with pytest.raises(ConfigError, match="expected an object, got list"):
            ChannelModel.from_json([1, 1, 1.0])

    @pytest.mark.parametrize("M, N", [(True, 1), (1, True)])
    def test_constructor_rejects_bool_dimensions(self, M, N):
        # a bool M reached reshape and raised a bare TypeError
        with pytest.raises(ValueError, match="positive integer"):
            ChannelModel(M, N, 1.0, [[1.0]])
