import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats
from scipy.special import ndtri
from scipy.stats import qmc

from mfbia.models import build_model
from mfbia.probabilistic import (
    DegenerateSignalError,
    FieldObservations,
    ModelEvaluationError,
    TruncatedNormalPrior,
    log_likelihood,
    observations_from_csv,
    observations_to_csv,
    sigma_from_snr,
    snr_from_sigma,
    sobol_standard_normal,
    synthesize_observations,
    write_empty_observations_csv,
)


class TestSigmaFromSnr:
    def test_constant_unit_signal(self):
        assert sigma_from_snr(np.ones(5), 50.0) == pytest.approx(0.02, rel=1e-15)

    def test_two_scalar_outputs(self):
        assert sigma_from_snr(np.array([1.0, 3.0]), 5.0) \
            == pytest.approx(1.0, rel=1e-15)

    def test_vector_outputs(self):
        outputs = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0]])  # ||.||^2 = 8
        assert sigma_from_snr(outputs, 4.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_signal_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            sigma_from_snr(np.zeros(4), 10.0)

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            sigma_from_snr(np.ones(3), 0.0)

    def test_empty_outputs(self):
        with pytest.raises(ValueError):
            sigma_from_snr(np.zeros(0), 1.0)

    @given(st.lists(st.floats(1e-6, 1e3).map(lambda v: v)
                    | st.floats(-1e3, -1e-6), min_size=1, max_size=20),
           st.floats(1e-6, 1e12))
    def test_round_trip_reproduces_snr(self, outputs, snr):
        variance = sigma_from_snr(np.asarray(outputs), snr)
        back = snr_from_sigma(np.asarray(outputs), variance)
        assert back == pytest.approx(snr, rel=1e-12)


class TestSobol:
    def test_empty(self):
        assert sobol_standard_normal(0).size == 0

    def test_first_deviate_is_zero(self):
        np.testing.assert_array_equal(sobol_standard_normal(1), [0.0])

    def test_leading_deviates(self):
        got = sobol_standard_normal(3)
        expected = ndtri([0.5, 0.75, 0.25])
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_matches_reference_scipy_engine(self):
        # independent route: stream the engine point by point past the origin
        engine = qmc.Sobol(d=1, scramble=False)
        engine.fast_forward(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            reference = ndtri(engine.random(37).ravel())
        np.testing.assert_array_equal(sobol_standard_normal(37), reference)

    def test_moments_converge(self):
        z = sobol_standard_normal(1024)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_prefix_property_and_determinism(self):
        long = sobol_standard_normal(64)
        short = sobol_standard_normal(16)
        np.testing.assert_array_equal(long[:16], short)
        np.testing.assert_array_equal(sobol_standard_normal(64), long)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sobol_standard_normal(-1)


class TestSynthesize:
    def setup_method(self):
        self.model = build_model("electromech")
        self.truth = np.array([11e3, 0.35])

    def test_values_are_truth_plus_scaled_deviates(self):
        coords = np.linspace(0.0, 0.4, 16)
        obs = synthesize_observations(self.model, self.truth, 1, coords, 50.0)
        truth_outputs = self.model.outputs(self.truth, 1, coords)
        expected = truth_outputs + math.sqrt(obs.noise_variance) \
            * sobol_standard_normal(16)
        np.testing.assert_array_equal(obs.values, expected)
        assert obs.snr == 50.0
        assert obs.noise_variance == sigma_from_snr(truth_outputs, 50.0)

    def test_vanishing_noise_limit(self):
        coords = np.linspace(0.0, 0.4, 8)
        obs = synthesize_observations(self.model, self.truth, 2, coords, 1e18)
        truth_outputs = self.model.outputs(self.truth, 2, coords)
        np.testing.assert_allclose(obs.values, truth_outputs, rtol=1e-6)

    def test_bitwise_deterministic(self):
        coords = np.linspace(0.0, 0.4, 5)
        a = synthesize_observations(self.model, self.truth, 2, coords, 80.0)
        b = synthesize_observations(self.model, self.truth, 2, coords, 80.0)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.noise_variance == b.noise_variance

    def test_model_failure_reports_coordinate(self):
        class Broken:
            def outputs(self, x, field_id, coords):
                out = np.asarray(coords, dtype=float).copy()
                out[1] = np.nan
                return out

        with pytest.raises(ModelEvaluationError) as excinfo:
            synthesize_observations(Broken(), self.truth, 1,
                                    np.array([0.0, 0.1, 0.2]), 10.0)
        assert excinfo.value.coordinate_index == 1

    def test_empty_coordinates_rejected(self):
        with pytest.raises(ValueError):
            synthesize_observations(self.model, self.truth, 1, [], 10.0)


class TestLogLikelihood:
    def setup_method(self):
        self.model = build_model("electromech")
        self.truth = np.array([11e3, 0.35])
        coords = np.linspace(0.0, 0.4, 6)
        outputs = self.model.outputs(self.truth, 1, coords)
        self.perfect = FieldObservations(field_id=1, coordinates=coords,
                                         values=outputs, noise_variance=1e-8)

    def test_perfect_fit_is_zero(self):
        assert log_likelihood(self.model, self.truth, [self.perfect]) == 0.0

    def test_single_observation_quadratic(self):
        # one scalar observation with residual r and variance s: -r^2/(2 s)
        coords = np.array([0.2])
        truth_out = self.model.outputs(self.truth, 1, coords)
        residual = 3e-4
        obs = FieldObservations(field_id=1, coordinates=coords,
                                values=truth_out + residual,
                                noise_variance=2.5e-7)
        value = log_likelihood(self.model, self.truth, [obs])
        np.testing.assert_allclose(value, -residual**2 / (2 * 2.5e-7),
                                   rtol=1e-12)

    def test_empty_observation_list(self):
        assert log_likelihood(self.model, self.truth, []) == 0.0

    def test_empty_observation_set_contributes_nothing(self):
        empty = FieldObservations(field_id=2, coordinates=np.zeros(0),
                                  values=np.zeros(0), noise_variance=1.0)
        assert log_likelihood(self.model, self.truth, [empty]) == 0.0

    def test_sum_over_fields(self):
        coords = np.linspace(0.0, 0.4, 4)
        obs1 = synthesize_observations(self.model, self.truth, 1, coords, 50.0)
        obs2 = synthesize_observations(self.model, self.truth, 2, coords, 80.0)
        x = np.array([9e3, 0.25])
        both = log_likelihood(self.model, x, [obs1, obs2])
        separate = log_likelihood(self.model, x, [obs1]) \
            + log_likelihood(self.model, x, [obs2])
        np.testing.assert_allclose(both, separate, rtol=1e-14)

    def test_failed_evaluation_is_minus_infinity(self):
        # nu close to 0.5 drives the current model inadmissible at 0.4 N
        coords = np.array([0.4])
        obs = synthesize_observations(self.model, self.truth, 2, coords, 100.0)
        bad_x = np.array([1e2, 0.4999])
        assert log_likelihood(self.model, bad_x, [obs]) == -np.inf

    def test_batched_parameters(self):
        coords = np.linspace(0.0, 0.4, 3)
        obs = synthesize_observations(self.model, self.truth, 1, coords, 50.0)
        grid = np.stack(np.meshgrid(np.linspace(8e3, 14e3, 4),
                                    np.linspace(0.1, 0.45, 5),
                                    indexing="ij"), axis=-1)
        values = log_likelihood(self.model, grid, [obs])
        assert values.shape == (4, 5)
        one = log_likelihood(self.model, grid[2, 3], [obs])
        np.testing.assert_allclose(values[2, 3], one, rtol=1e-14)

    def test_raising_model_yields_sentinel(self):
        class Raising:
            def outputs(self, x, field_id, coords):
                raise RuntimeError("solver blew up")

        obs = FieldObservations(field_id=1, coordinates=np.array([0.1]),
                                values=np.array([1.0]), noise_variance=1.0)
        assert log_likelihood(Raising(), self.truth, [obs]) == -np.inf


class TestPrior:
    def test_outside_bounds(self, material_prior):
        assert material_prior.log_density(np.array([-1.0, 0.2])) == -np.inf
        assert material_prior.log_density(np.array([1e4, 0.6])) == -np.inf

    def test_untruncated_limit_matches_normal(self):
        prior = TruncatedNormalPrior(mean=[1.5], variance=[4.0],
                                     lower=[-1e12], upper=[1e12])
        x = np.array([2.3])
        closed = -0.5 * (2.3 - 1.5)**2 / 4.0 - 0.5 * math.log(2 * math.pi * 4.0)
        np.testing.assert_allclose(prior.log_density(x), closed, rtol=1e-12)

    def test_half_normal_normalization(self):
        prior = TruncatedNormalPrior(mean=[0.0], variance=[1.0],
                                     lower=[0.0], upper=[1e12])
        expected = math.log(2.0 / math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(prior.log_density(np.array([0.0])),
                                   expected, rtol=1e-12)

    def test_matches_scipy_truncnorm(self, material_prior):
        rng = np.random.default_rng(5)
        xs = np.stack([rng.uniform(4e3, 1.8e4, 40),
                       rng.uniform(0.01, 0.49, 40)], axis=-1)
        ours = material_prior.log_density(xs)
        reference = (
            stats.truncnorm.logpdf(xs[:, 0], -5.0, np.inf, loc=10e3, scale=2e3)
            + stats.truncnorm.logpdf(xs[:, 1], -2.0, 4.0 / 3.0,
                                     loc=0.3, scale=0.15))
        np.testing.assert_allclose(ours, reference, rtol=1e-10)

    def test_integrates_to_one(self, material_prior):
        # adaptive 2-D quadrature of the joint density over the truncation
        # box, standardized so both directions have unit scale
        prior = material_prior
        sd = prior.sd

        def standardized(z1, z2):
            x = np.array([prior.mean[0] + sd[0] * z1,
                          prior.mean[1] + sd[1] * z2])
            value = prior.log_density(x[None, :])[0]
            return 0.0 if value == -np.inf else math.exp(value) * sd[0] * sd[1]

        mass, estimate_error = integrate.dblquad(
            standardized, -2.0, 4.0 / 3.0, -5.0, 9.0, epsabs=1e-10)
        assert estimate_error < 1e-8
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedNormalPrior(mean=[0.0], variance=[0.0],
                                 lower=[-1.0], upper=[1.0])
        with pytest.raises(ValueError):
            TruncatedNormalPrior(mean=[0.0], variance=[1.0],
                                 lower=[1.0], upper=[-1.0])
        with pytest.raises(ValueError):
            TruncatedNormalPrior(mean=[0.0, 1.0], variance=[1.0],
                                 lower=[-1.0], upper=[1.0])

    def test_marginal_ppf_rejects_boundary_quantiles(self, material_prior):
        with pytest.raises(ValueError):
            material_prior.marginal_ppf(0, 0.0)


class TestObservationCsv:
    def test_round_trip(self, tmp_path):
        obs = FieldObservations(field_id=2,
                                coordinates=np.array([0.0, 0.2, 0.4]),
                                values=np.array([0.1, 0.09, 0.07]),
                                noise_variance=6.1e-7, snr=1.2e4)
        path = tmp_path / "obs.csv"
        observations_to_csv(obs, path)
        back = observations_from_csv(path)
        assert back.field_id == 2
        np.testing.assert_array_equal(back.coordinates, obs.coordinates)
        np.testing.assert_array_equal(back.values, obs.values)
        assert back.noise_variance == obs.noise_variance
        assert back.snr == obs.snr

    def test_round_trip_without_snr(self, tmp_path):
        obs = FieldObservations(field_id=1, coordinates=np.array([0.1]),
                                values=np.array([2.0]), noise_variance=0.5)
        path = tmp_path / "obs.csv"
        observations_to_csv(obs, path)
        assert observations_from_csv(path).snr is None

    def test_header_only_reads_as_none(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_empty_observations_csv(path)
        assert observations_from_csv(path) is None

    def test_vector_values_flatten_to_component_rows(self, tmp_path):
        obs = FieldObservations(field_id=1, coordinates=np.array([0.1, 0.2]),
                                values=np.array([[1.0, 2.0], [3.0, 4.0]]),
                                noise_variance=1.0)
        path = tmp_path / "obs.csv"
        observations_to_csv(obs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5  # header + 2 observations x 2 components
        back = observations_from_csv(path)
        assert len(back) == 4
        np.testing.assert_array_equal(back.values, [1.0, 2.0, 3.0, 4.0])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            observations_from_csv(path)

    def test_mixed_fields_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("field_id,coordinate,value,sigma2,snr\n"
                        "1,0.0,1.0,1.0,\n2,0.1,1.0,1.0,\n")
        with pytest.raises(ValueError):
            observations_from_csv(path)


class TestFieldObservationsValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FieldObservations(field_id=1, coordinates=np.array([0.1]),
                              values=np.array([1.0, 2.0]), noise_variance=1.0)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            FieldObservations(field_id=1, coordinates=np.array([0.1]),
                              values=np.array([1.0]), noise_variance=0.0)

    def test_bad_field_id(self):
        with pytest.raises(ValueError):
            FieldObservations(field_id=0, coordinates=np.array([0.1]),
                              values=np.array([1.0]), noise_variance=1.0)
