import copy
import math

import numpy as np
import pytest
from scipy import optimize
from scipy import stats
from scipy.special import ndtri

from mfbia.inference import (
    InferenceError,
    PriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    kl_gaussians,
    posterior_to_csv,
    posterior_to_json,
    riig,
    trapezoid_nd,
)
from mfbia.probabilistic import TruncatedNormalPrior


def wide_prior(dim: int = 1) -> TruncatedNormalPrior:
    return TruncatedNormalPrior(mean=np.zeros(dim), variance=np.ones(dim),
                                lower=np.full(dim, -1e12),
                                upper=np.full(dim, 1e12))


def gaussian_loglik(center, variances):
    center = np.atleast_1d(center)
    variances = np.atleast_1d(variances)

    def fn(nodes):
        return -0.5 * np.sum((nodes - center) ** 2 / variances, axis=-1)

    return fn


def conjugate_posterior(prior_cov, lik_center, lik_cov):
    """Closed-form Gaussian product: mean and covariance of the posterior."""
    prior_cov = np.atleast_2d(prior_cov)
    lik_cov = np.atleast_2d(lik_cov)
    precision = np.linalg.inv(prior_cov) + np.linalg.inv(lik_cov)
    cov = np.linalg.inv(precision)
    mean = cov @ np.linalg.solve(lik_cov, np.atleast_1d(lik_center))
    return mean, cov


class TestCdfSpacedGrid:
    def test_two_point_standard_normal(self):
        (axis,) = cdf_spaced_grid(wide_prior(), [2])
        np.testing.assert_allclose(axis, [ndtri(0.25), ndtri(0.75)],
                                    rtol=1e-12)
        np.testing.assert_allclose(axis, [-0.6744897501960817,
                                          0.6744897501960817], rtol=1e-12)

    def test_symmetric_about_mean(self):
        prior = TruncatedNormalPrior(mean=[2.0], variance=[4.0],
                                     lower=[-1e12], upper=[1e12])
        (axis,) = cdf_spaced_grid(prior, [11])
        np.testing.assert_allclose(axis - 2.0, -(axis[::-1] - 2.0),
                                   atol=1e-10)

    def test_truncated_axis_stays_inside_bounds(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [50, 50])
        assert axes[0][0] > 0.0
        assert 0.0 < axes[1][0] and axes[1][-1] < 0.5

    def test_single_count_broadcasts(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [30])
        assert len(axes) == 2 and all(a.size == 30 for a in axes)

    def test_too_few_points_rejected(self, material_prior):
        with pytest.raises(ValueError):
            cdf_spaced_grid(material_prior, [1, 10])


class TestEvaluatePosterior:
    def test_no_observations_reproduces_prior_density(self):
        prior = TruncatedNormalPrior(mean=[0.0], variance=[1.0],
                                     lower=[-1.0], upper=[1.0])
        axes = (np.linspace(-1.0, 1.0, 1001),)
        grid = evaluate_posterior(prior,
                                  lambda nodes: np.zeros(nodes.shape[:-1]),
                                  axes)
        reference = stats.truncnorm.pdf(grid.axes[0], -1.0, 1.0)
        assert np.max(np.abs(grid.density - reference)) < 1e-6

    def test_conjugate_gaussian_closed_form(self):
        prior = wide_prior()
        grid = evaluate_posterior(prior, gaussian_loglik(0.2, 0.25),
                                  (np.linspace(-9.0, 9.0, 2001),))
        mean, cov = conjugate_posterior(np.eye(1), [0.2], [[0.25]])
        reference = stats.norm.pdf(grid.axes[0], loc=mean[0],
                                   scale=math.sqrt(cov[0, 0]))
        rel = np.abs(grid.density - reference) / reference
        assert rel.max() < 1e-6

    def test_density_normalized(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [60, 60])
        grid = evaluate_posterior(material_prior,
                                  gaussian_loglik([11e3, 0.35],
                                                  [1e6, 0.01]), axes)
        assert trapezoid_nd(grid.density, grid.axes) \
            == pytest.approx(1.0, abs=1e-9)

    def test_max_shift_survives_huge_loglik_offsets(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [40, 40])
        base = gaussian_loglik([11e3, 0.35], [1e6, 0.01])
        lo = evaluate_posterior(material_prior, base, axes)
        hi = evaluate_posterior(material_prior,
                                lambda n: base(n) - 5e4, axes)
        # the constant offset perturbs each log value by a few ulps of 5e4
        np.testing.assert_allclose(hi.density, lo.density, rtol=1e-10)
        np.testing.assert_allclose(hi.log_normalization,
                                   lo.log_normalization - 5e4, rtol=1e-12)

    def test_all_dead_nodes_is_an_error(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [10, 10])
        with pytest.raises(InferenceError):
            evaluate_posterior(material_prior,
                               lambda nodes: np.full(nodes.shape[:-1],
                                                     -np.inf), axes)

    def test_nan_loglik_rejected(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [10, 10])
        with pytest.raises(InferenceError):
            evaluate_posterior(material_prior,
                               lambda nodes: np.full(nodes.shape[:-1],
                                                     np.nan), axes)

    def test_axes_validation(self, material_prior):
        with pytest.raises(ValueError):
            evaluate_posterior(material_prior, lambda n: 0.0,
                               (np.array([1.0, 0.5]), np.array([0.1, 0.2])))

    def test_boundary_mass_warning(self, material_prior, caplog):
        # likelihood concentrated past the upper grid edge in nu
        axes = cdf_spaced_grid(material_prior, [50, 50])
        loglik = gaussian_loglik([10e3, 0.4999], [1e8, 1e-8])
        with caplog.at_level("WARNING"):
            grid = evaluate_posterior(material_prior, loglik, axes)
        assert grid.boundary_mass > 0.05
        assert any("outermost" in record.message for record in caplog.records)

    def test_posterior_factor_update(self, material_prior):
        # adding observations B to a posterior from A must equal the joint
        axes = cdf_spaced_grid(material_prior, [40, 40])
        lik_a = gaussian_loglik([11e3, 0.35], [4e6, 0.04])
        lik_b = gaussian_loglik([10.5e3, 0.30], [9e6, 0.09])
        joint = evaluate_posterior(material_prior,
                                   lambda n: lik_a(n) + lik_b(n), axes)
        stage_a = evaluate_posterior(material_prior, lik_a, axes)
        stage_ab = evaluate_posterior(material_prior,
                                      lambda n, g=stage_a:
                                      g.log_unnormalized
                                      - material_prior.log_density(n)
                                      + lik_b(n), axes)
        np.testing.assert_allclose(stage_ab.density, joint.density,
                                   rtol=1e-10, atol=joint.density.max() * 1e-12)


class TestInformationGain:
    def test_identical_posterior_and_prior(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [100, 100])
        grid = evaluate_posterior(material_prior,
                                  lambda nodes: np.zeros(nodes.shape[:-1]),
                                  axes)
        assert abs(information_gain(grid, material_prior)) < 1e-9

    def test_univariate_variance_reduction(self):
        # posterior N(0, 0.25) from prior N(0, 1):
        # KL = (0.25 - 1 - ln 0.25)/2
        prior = wide_prior()
        grid = evaluate_posterior(prior, gaussian_loglik(0.0, 1.0 / 3.0),
                                  (np.linspace(-8.0, 8.0, 1601),))
        expected = 0.5 * (0.25 - 1.0 - math.log(0.25))
        np.testing.assert_allclose(information_gain(grid, prior), expected,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(expected, 0.3181471805599453, rtol=1e-15)

    def test_2d_conjugate_matches_closed_form_kl(self):
        prior = wide_prior(2)
        lik_center = np.array([0.3, -0.2])
        lik_var = np.array([0.05, 0.08])
        axis = np.linspace(-6.0, 6.0, 200)
        grid = evaluate_posterior(prior, gaussian_loglik(lik_center, lik_var),
                                  (axis, axis))
        mean, cov = conjugate_posterior(np.eye(2), lik_center,
                                        np.diag(lik_var))
        expected = kl_gaussians(np.zeros(2), np.eye(2), mean, cov)
        assert abs(information_gain(grid, prior) - expected) < 1e-3

    def test_quadrature_convergence_with_grid_refinement(self):
        prior = wide_prior(2)
        lik_center = np.array([0.3, -0.2])
        lik_var = np.array([0.05, 0.08])
        mean, cov = conjugate_posterior(np.eye(2), lik_center,
                                        np.diag(lik_var))
        expected = kl_gaussians(np.zeros(2), np.eye(2), mean, cov)
        errors = []
        for n in (50, 100, 200):
            axis = np.linspace(-6.0, 6.0, n)
            grid = evaluate_posterior(prior,
                                      gaussian_loglik(lik_center, lik_var),
                                      (axis, axis))
            errors.append(abs(information_gain(grid, prior) - expected))
        floor = 1e-8
        assert errors[1] <= errors[0] + floor
        assert errors[2] <= errors[1] + floor
        # at least second-order decay until the truncation floor
        assert errors[0] / max(errors[1], floor) > 3.9 or errors[1] < floor

    def test_gibbs_inequality_on_informative_posterior(self, material_prior):
        axes = cdf_spaced_grid(material_prior, [80, 80])
        grid = evaluate_posterior(material_prior,
                                  gaussian_loglik([11e3, 0.35], [1e6, 0.01]),
                                  axes)
        gain = information_gain(grid, material_prior)
        assert gain > 0.0


def numpy_trapezoid_nd(values, axes) -> float:
    for axis in reversed(axes):
        values = np.trapezoid(values, x=axis, axis=-1)
    return float(values)


def reference_gain(density, prior, axes) -> float:
    """KL of ``density`` from ``prior`` renormalized on the grid, by
    numpy's trapezoid."""
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    log_prior = prior.log_density(nodes)
    log_prior = log_prior - math.log(
        numpy_trapezoid_nd(np.exp(log_prior), axes))
    alive = density > 0
    log_post = np.log(density, out=np.zeros_like(density), where=alive)
    with np.errstate(invalid="ignore"):   # 0 * inf at dead prior nodes
        integrand = np.where(alive, density * (log_post - log_prior), 0.0)
    return numpy_trapezoid_nd(integrand, axes)


#: Agreement of the prior-mass weighted gain with numpy's trapezoid.
GAIN_RTOL = 1e-12


class TestPriorGrid:
    """A grid built once per prior gives the results of plain axes."""

    #: lower bound 0 inside the first axis, so its first nodes are dead
    PRIOR = TruncatedNormalPrior(mean=[1.0, 0.6], variance=[0.25, 0.25],
                                 lower=[0.0, 0.0], upper=[np.inf, np.inf])
    LOGLIK = staticmethod(gaussian_loglik([1.2, 0.7], [0.1, 0.2]))

    @pytest.mark.parametrize("axes", [
        (np.linspace(-0.5, 2.5, 31), np.linspace(0.05, 1.8, 23)),
        # an axis of size 2 has no interior: all mass is boundary mass
        (np.linspace(-0.5, 2.5, 31), np.array([0.4, 0.9])),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_prebuilt_grid_is_bit_equal_to_plain_axes(self, axes):
        prior = self.PRIOR
        grid = PriorGrid(prior, axes)
        assert grid.dead.any() and not grid.dead.all()
        plain = evaluate_posterior(prior, self.LOGLIK, axes)
        built = evaluate_posterior(prior, self.LOGLIK, grid)
        assert built.grid is grid
        for name in ("density", "log_unnormalized"):
            np.testing.assert_array_equal(getattr(built, name),
                                          getattr(plain, name))
        assert built.log_normalization == plain.log_normalization
        assert built.boundary_mass == plain.boundary_mass
        if len(axes[1]) == 2:
            assert built.boundary_mass == 1.0
        assert information_gain(built, prior) \
            == information_gain(plain, prior)
        # the weighted sum rounds differently from numpy's iterated rule
        assert information_gain(plain, prior) == pytest.approx(
            reference_gain(plain.density, prior, axes), rel=GAIN_RTOL)

    @pytest.mark.parametrize("axes", [
        (np.linspace(-0.5, 2.5, 31), np.linspace(0.05, 1.8, 23)),
        (np.linspace(-0.5, 2.5, 31), np.array([0.4, 0.9])),
    ])
    def test_weights_are_the_prior_mass_per_node(self, axes):
        grid = PriorGrid(self.PRIOR, axes)
        weights = grid.weights
        assert abs(weights.sum() - 1.0) <= 1e-14
        assert np.all(weights >= 0) and np.all(weights[grid.dead] == 0)
        assert np.all(weights[~grid.dead] > 0)
        # a weighted sum is the trapezoid of the renormalized prior times it
        values = np.cos(grid.nodes.sum(axis=-1))
        assert (weights * values).sum() == pytest.approx(
            numpy_trapezoid_nd(grid.prior_on_grid * values, axes),
            rel=0, abs=1e-14)
        if len(axes[1]) == 2:
            assert grid.interior_weights is None
            return
        interior = grid.interior_weights
        inner = (slice(1, -1), slice(1, -1))
        shell = np.ones(interior.shape, dtype=bool)
        shell[inner] = False
        assert np.all(interior >= 0) and np.all(interior[grid.dead] == 0)
        assert np.all(interior[shell] == 0)
        # the prior's own mass on the interior sub-grid, less than 1
        prior_inner = numpy_trapezoid_nd(grid.prior_on_grid[inner],
                                         [axis[1:-1] for axis in axes])
        assert abs(interior.sum() - prior_inner) <= 1e-14
        assert prior_inner < 1.0

    def test_arrays_are_read_only(self):
        grid = PriorGrid(self.PRIOR, (np.linspace(-0.5, 2.5, 31),
                                      np.linspace(0.05, 1.8, 23)))
        for name in ("nodes", "log_prior", "dead", "dead_index",
                     "prior_on_grid", "weights", "interior_weights"):
            array = getattr(grid, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array.flat[0] = 1

    def test_trapezoid_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(3)
        axes = [np.cumsum(rng.uniform(0.1, 1.0, n)) for n in (5, 7, 4)]
        values = rng.normal(size=(5, 7, 4))
        assert trapezoid_nd(values, axes) == numpy_trapezoid_nd(values, axes)

    OTHER = TruncatedNormalPrior(mean=[1.3, 0.5], variance=[0.5, 0.3],
                                 lower=[-1.0, 0.0], upper=[3.0, 2.0])
    AXES = (np.linspace(-0.5, 2.5, 31), np.linspace(0.05, 1.8, 23))

    def test_grid_for_another_prior_raises(self):
        grid = PriorGrid(self.PRIOR, self.AXES)
        with pytest.raises(ValueError, match="^axes: "):
            evaluate_posterior(self.OTHER, self.LOGLIK, grid)

    def test_gain_under_another_prior_raises(self):
        posterior = evaluate_posterior(self.PRIOR, self.LOGLIK, self.AXES)
        with pytest.raises(ValueError, match="^prior: "):
            information_gain(posterior, self.OTHER)

    def test_equal_prior_reuses_the_grid(self):
        grid = PriorGrid(self.PRIOR, self.AXES)
        twin = copy.deepcopy(self.PRIOR)
        assert twin is not self.PRIOR and twin == self.PRIOR
        posterior = evaluate_posterior(twin, self.LOGLIK, grid)
        own = evaluate_posterior(self.PRIOR, self.LOGLIK, grid)
        assert posterior.grid is grid
        np.testing.assert_array_equal(posterior.density, own.density)
        gain = information_gain(own, self.PRIOR)
        assert information_gain(posterior, twin) == gain
        assert information_gain(own, twin) == gain


class TestDeterminism:
    """The sums behind a posterior and its gain are numpy pairwise
    reductions, whose bits depend neither on the process nor on where the
    log-likelihood sits in memory (a BLAS dot may depend on both)."""

    GRIDS = [
        # CDF-spaced, no dead nodes
        lambda prior: cdf_spaced_grid(prior, [100, 100]),
        # dead nodes below the prior's lower bound
        lambda prior: (np.linspace(-2e3, 16e3, 91),
                       np.linspace(0.01, 0.6, 77)),
    ]

    @staticmethod
    def _evaluate(prior, grid, log_lik):
        posterior = evaluate_posterior(prior, lambda nodes: log_lik, grid)
        return (posterior, information_gain(posterior, prior))

    @pytest.mark.parametrize("make_axes", GRIDS, ids=["cdf", "dead"])
    def test_bits_do_not_depend_on_loglik_memory(self, material_prior,
                                                 make_axes):
        grid = PriorGrid(material_prior, make_axes(material_prior))
        values = gaussian_loglik([11e3, 0.35], [1e6, 0.01])(grid.nodes)
        values[0, :3] = -np.inf          # failed evaluations
        fresh = np.array(values)
        buffer = np.empty(values.size + 1)
        shifted = buffer[1:].reshape(values.shape)
        shifted[...] = values
        assert shifted.ctypes.data % 16 != fresh.ctypes.data % 16
        first, gain_first = self._evaluate(material_prior, grid, fresh)
        second, gain_second = self._evaluate(material_prior, grid, shifted)
        assert first.density.tobytes() == second.density.tobytes()
        assert first.boundary_mass == second.boundary_mass
        assert first.log_normalization == second.log_normalization
        assert gain_first == gain_second

    @pytest.mark.parametrize("make_axes", GRIDS, ids=["cdf", "dead"])
    def test_sums_are_pairwise_reductions(self, material_prior, make_axes):
        grid = PriorGrid(material_prior, make_axes(material_prior))
        log_lik = gaussian_loglik([11e3, 0.35], [1e6, 0.01])(grid.nodes)
        posterior, gain = self._evaluate(material_prior, grid, log_lik)
        mass = grid.weights * posterior.ratio
        assert gain == float(np.add.reduce(
            (mass * posterior.log_ratio).ravel()))
        inner = np.add.reduce((grid.interior_weights
                               * posterior.ratio).ravel())
        assert posterior.boundary_mass == max(0.0, 1.0 - float(inner))


class TestKlGaussians:
    def test_identical(self):
        assert kl_gaussians([1.0, 2.0], np.eye(2), [1.0, 2.0], np.eye(2)) == 0.0

    def test_mean_shift(self):
        delta = 0.8
        np.testing.assert_allclose(kl_gaussians([0.0], [[1.0]], [delta], [[1.0]]),
                                   delta**2 / 2, rtol=1e-14)

    def test_three_routes_to_one_kl_value(self):
        # mean shift, variance reduction, and correlation increase tuned to
        # the same divergence from a standard 2-D normal
        target = 0.5
        shift = math.sqrt(2 * target)
        # KL of N(0, diag(s, 1)) from N(0, I) is (s - 1 - ln s)/2
        scale = optimize.brentq(lambda s: s - 1 - math.log(s) - 2 * target,
                                1e-9, 1.0, xtol=1e-16, rtol=8.9e-16)
        corr = math.sqrt(1.0 - math.exp(-2.0 * target))
        eye = np.eye(2)
        kl_shift = kl_gaussians([0.0, 0.0], eye, [shift, 0.0], eye)
        kl_scale = kl_gaussians([0.0, 0.0], eye, [0.0, 0.0],
                                np.diag([scale, 1.0]))
        kl_corr = kl_gaussians([0.0, 0.0], eye, [0.0, 0.0],
                               np.array([[1.0, corr], [corr, 1.0]]))
        np.testing.assert_allclose([kl_shift, kl_scale, kl_corr],
                                   target, rtol=0, atol=1e-12)

    def test_scalar_variances_accepted(self):
        value = kl_gaussians(0.0, 1.0, 0.0, 0.25)
        np.testing.assert_allclose(value, 0.5 * (0.25 - 1 - math.log(0.25)),
                                   rtol=1e-14)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            kl_gaussians([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]),
                         [0.0, 0.0], np.eye(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            kl_gaussians([0.0, 0.0], np.array([[1.0, 0.5], [0.1, 1.0]]),
                         [0.0, 0.0], np.eye(2))


class TestRiig:
    def test_no_second_field_effect(self):
        assert riig(1.7, 1.7) == 0.0

    def test_headline_arithmetic(self):
        assert riig(1.0, 2.23) == pytest.approx(1.23, rel=1e-12)

    def test_small_negative_is_legal(self):
        assert riig(2.0, 1.9) == pytest.approx(-0.05, rel=1e-12)

    def test_nonpositive_single_gain_rejected(self):
        with pytest.raises(ValueError):
            riig(0.0, 1.0)
        with pytest.raises(ValueError):
            riig(-0.3, 1.0)


class TestSerialization:
    def test_csv_layout(self, material_prior, tmp_path):
        axes = cdf_spaced_grid(material_prior, [4, 3])
        grid = evaluate_posterior(material_prior,
                                  lambda nodes: np.zeros(nodes.shape[:-1]),
                                  PriorGrid(material_prior, axes,
                                            ("youngs_modulus",
                                             "poisson_ratio")))
        path = tmp_path / "posterior.csv"
        posterior_to_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "youngs_modulus,poisson_ratio,log_unnormalized,density"
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert float(first[0]) == grid.axes[0][0]
        assert float(first[1]) == grid.axes[1][0]

    def test_json_sidecar(self, material_prior, tmp_path):
        import json

        axes = cdf_spaced_grid(material_prior, [5, 5])
        grid = evaluate_posterior(material_prior,
                                  lambda nodes: np.zeros(nodes.shape[:-1]),
                                  axes)
        path = tmp_path / "posterior.json"
        posterior_to_json(grid, path, information_gain=0.0,
                          provenance={"prior_hash": "abc"})
        data = json.loads(path.read_text())
        assert data["information_gain"] == 0.0
        assert data["provenance"]["prior_hash"] == "abc"
        assert len(data["axes"]) == 2
        assert data["boundary_mass"] == grid.boundary_mass
