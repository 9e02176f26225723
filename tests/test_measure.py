import math

import numpy as np
import pytest

from fading_capacity import (ChannelModel, ConfigError, DiscreteMeasure, InputShell, McConfig,
                             PowerConstraint, ScaleOverflowError, average_power,
                             log_density, mixture_log_density, mutual_information,
                             prune_weights, shell_mass)
from conftest import radial_measure, random_input, random_model
from oracles import kron_conditional_covariance, mp_mixture_log_density


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0j], [1.0 + 0j]], [0.5, 0.501])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0j], [1.0 + 0j]], [1.5, -0.5])

    def test_atoms_must_be_distinct(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[1.0 + 0j], [1.0 + 0j]], [0.5, 0.5])

    def test_atom_past_squaring_range_builds_without_warning(self):
        # warnings are errors here: the distinctness check and norms_sq overflow
        # quietly, and the estimator raises the typed error
        mu = DiscreteMeasure([[0j], [1e160 + 0j]], [0.5, 0.5])
        assert mu.norms_sq[1] == math.inf
        with pytest.raises(ScaleOverflowError):
            mutual_information(ChannelModel.isotropic(1, 1, 1.0, 1.0), mu, McConfig(200, seed=1))

    def test_json_roundtrip(self):
        mu = DiscreteMeasure([[0j, 1j], [1.0 + 0j, 0j]], [0.25, 0.75])
        back = DiscreteMeasure.from_json(mu.to_json())
        assert np.array_equal(back.atoms, mu.atoms)
        assert np.array_equal(back.weights, mu.weights)

    @pytest.mark.parametrize("atoms, weights, path", [
        ([{"re": ["2.5"]}, {"re": [0.0]}], [0.5, 0.5], r"^atoms\[0\]\.re\[0\]: "),
        ([{"re": [True]}, {"re": [0.0]}], [0.5, 0.5], r"^atoms\[0\]\.re\[0\]: "),
        ([{"re": [1.0]}, {"re": [0.0]}], ["0.5", 0.5], r"^weights\[0\]: "),
        ([{"re": [1.0, 2.0], "im": [1.0]}], [1.0], r"^atoms\[0\]\.im: "),
        ([{"re": [1.0, 2.0]}, {"re": [0.0]}], [0.5, 0.5], r"^atoms\[1\]\.re: "),
        ([{"im": [1.0]}], [1.0], r"^atoms\[0\]\.re: missing"),
        ([], [], r"^atoms: "),
    ], ids=["coordinate-string", "coordinate-bool", "weight-string", "im-shorter",
            "lengths-differ", "re-missing", "no-atoms"])
    def test_json_malformed_field_is_config_error(self, atoms, weights, path):
        # strings and bools were coerced and a short im broadcast over re: the atom
        # (1+1j, 2+1j); differing lengths raised numpy's ValueError
        with pytest.raises(ConfigError, match=path):
            DiscreteMeasure.from_json({"atoms": atoms, "weights": weights})

    def test_prune_weights(self):
        mu = DiscreteMeasure([[0j], [1.0 + 0j], [2.0 + 0j]],
                             [0.5, 0.5 - 1e-16, 1e-16])
        out = prune_weights(mu)
        assert out.n_atoms == 2
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-15)


class TestAveragePower:
    def test_point_mass_at_zero(self):
        assert average_power(DiscreteMeasure.single([0j, 0j])) == 0.0

    def test_two_atom_forced_value(self):
        mu = DiscreteMeasure([[0j, 0j], [2.0 + 0j, 0j]], [0.5, 0.5])
        # N=2, norms {0, 4}, weights half each -> 0.5*4/2 = 1
        assert average_power(mu) == pytest.approx(1.0, abs=1e-15)

    def test_matches_per_atom_summation_oracle(self):
        rng = np.random.default_rng(4)
        atoms = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        w = rng.dirichlet(np.ones(5))
        mu = DiscreteMeasure(atoms, w)
        expected = sum(w[i] * float(np.sum(np.abs(atoms[i]) ** 2)) / 3
                       for i in range(5))
        assert average_power(mu) == pytest.approx(expected, rel=1e-15)


class TestShells:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            InputShell(2.0, 1.0)
        with pytest.raises(ValueError):
            InputShell(-1.0, 1.0)

    def test_point_mass_outside_and_inside(self):
        delta0 = DiscreteMeasure.single([0j])
        assert shell_mass(delta0, InputShell(1.0, 2.0)) == 0.0
        assert shell_mass(delta0, InputShell(0.0, 1.0)) == 1.0

    def test_matches_filter_oracle(self):
        rng = np.random.default_rng(9)
        ts = rng.uniform(0.0, 10.0, size=6)
        w = rng.dirichlet(np.ones(6))
        mu = radial_measure(ts, w)
        shell = InputShell(2.0, 7.0)
        expected = sum(wi for ti, wi in zip(ts, w) if 2.0 <= ti <= 7.0)
        assert shell_mass(mu, shell) == pytest.approx(expected, abs=1e-15)

    def test_partition_masses_sum_to_one(self):
        rng = np.random.default_rng(10)
        mu = radial_measure(rng.uniform(0, 9.99, 8), rng.dirichlet(np.ones(8)))
        edges = [0.0, 1.0, 5.0, 10.0]
        total = sum(shell_mass(mu, InputShell(a, b - 1e-12))
                    for a, b in zip(edges[:-1], edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_power_constraint_validation(self):
        with pytest.raises(ValueError):
            PowerConstraint(0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_power_constraint_must_be_finite(self, bad):
        # inf was accepted, and optimize_measure then overflowed the squared norms
        with pytest.raises(ValueError, match="power budget must be positive and finite"):
            PowerConstraint(bad)


class TestMixtureLogDensity:
    def test_single_atom_equals_conditional(self, scalar_model):
        mu = DiscreteMeasure.single([2.0 + 0j])
        y = [0.3 + 0.1j]
        assert mixture_log_density(scalar_model, mu, y) == pytest.approx(
            log_density(scalar_model, y, [2.0 + 0j]), abs=1e-12)

    def test_same_law_atoms_make_weights_irrelevant(self, scalar_model):
        # x and -x induce the same conditional law on an isotropic channel
        y = [0.7 - 0.2j]
        for w in (0.1, 0.5, 0.9):
            mu = DiscreteMeasure([[1.5 + 0j], [-1.5 + 0j]], [w, 1.0 - w])
            assert mixture_log_density(scalar_model, mu, y) == pytest.approx(
                log_density(scalar_model, y, [1.5 + 0j]), abs=1e-12)

    def test_matches_plain_domain_summation(self, scalar_model):
        mu = radial_measure([0.0, 2.0, 5.0], [0.3, 0.4, 0.3])
        y = [0.4 + 0.6j]
        plain = sum(w * math.exp(log_density(scalar_model, y, a))
                    for a, w in zip(mu.atoms, mu.weights))
        assert mixture_log_density(scalar_model, mu, y) == pytest.approx(
            math.log(plain), abs=1e-12)

    def test_permutation_invariance(self, scalar_model):
        ts, ws = [0.0, 2.0, 5.0], [0.3, 0.4, 0.3]
        y = [0.2 - 1.1j]
        a = mixture_log_density(scalar_model, radial_measure(ts, ws), y)
        perm = [2, 0, 1]
        b = mixture_log_density(
            scalar_model, radial_measure([ts[i] for i in perm],
                                         [ws[i] for i in perm]), y)
        assert a == pytest.approx(b, abs=1e-13)

    @staticmethod
    def _mpmath(model, mu, y):
        covs = [kron_conditional_covariance(model.sigma, a, model.M, model.N, model.noise_var)
                for a in mu.atoms]
        return mp_mixture_log_density(covs, mu.weights, y)

    def test_matches_mpmath(self, scalar_model):
        pytest.importorskip("mpmath")
        mu = radial_measure([0.0, 2.0, 5.0], [0.3, 0.4, 0.3])
        y = [0.4 + 0.6j]
        assert mixture_log_density(scalar_model, mu, y) == pytest.approx(
            self._mpmath(scalar_model, mu, y), rel=1e-15, abs=0.0)

    def test_dense_matches_mpmath(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        model = random_model(rng, 2, 2)
        mu = DiscreteMeasure([np.zeros(2), random_input(rng, 2),
                              random_input(rng, 2, scale=4.0)], [0.5, 0.3, 0.2])
        y = random_input(rng, 2)
        assert mixture_log_density(model, mu, y) == pytest.approx(
            self._mpmath(model, mu, y), rel=1e-15, abs=0.0)

    def test_output_past_double_range_has_no_density(self, scalar_model):
        # ||y||^2 = 1e310: every atom's density is -inf, and so is the mixture's,
        # with no overflow warning (warnings are errors) and no -inf - -inf
        mu = radial_measure([0.0, 4.0], [0.6, 0.4])
        y = [1e155 + 0j]
        assert log_density(scalar_model, y, [0j]) == -math.inf
        assert mixture_log_density(scalar_model, mu, y) == -math.inf

    def test_rejects_non_finite_output(self):
        model = ChannelModel.isotropic(2, 1, 1.0, 1.0)
        mu = DiscreteMeasure.single([1.0 + 0j])
        with pytest.raises(ValueError, match="non-finite"):
            mixture_log_density(model, mu, [math.inf, 0.0])

    def test_dimension_mismatch(self):
        model = ChannelModel.isotropic(1, 2, 1.0, 1.0)
        mu = DiscreteMeasure.single([0j])
        with pytest.raises(ValueError):
            mixture_log_density(model, mu, [0j])
