import logging
import math
import sys
import threading
import time
import warnings
import weakref
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

import mfbia.probabilistic as probabilistic
from mfbia.models import build_model
from mfbia.probabilistic import (
    _ndtr,
    _ndtri,
    _sobol_1d,
    MISFIT_BLOCK_ELEMENTS,
    OBSERVATION_CSV_HEADER,
    DegenerateSignalError,
    FieldObservations,
    MisfitMoments,
    ModelEvaluationError,
    ObservationFileError,
    ReductionPool,
    TruncatedNormalPrior,
    log_likelihood,
    misfit_moments,
    observations_from_csv,
    observations_to_csv,
    sigma_from_snr,
    snr_from_sigma,
    sobol_standard_normal,
    synthesize_observations,
    write_csv,
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


def assert_standard_normal_quantiles(deviates, points):
    """The deviates are the stdlib normal quantiles of the points bit for
    bit, and within 8 ulp of scipy's ndtri."""
    inv_cdf = NormalDist().inv_cdf
    np.testing.assert_array_equal(deviates, [inv_cdf(p) for p in points])
    reference = ndtri(points)
    ulps = np.abs(deviates - reference) / np.spacing(np.abs(reference))
    assert ulps.max() <= 8


class TestNormalFunctions:
    @pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-16, 0.5 - 1e-12,
                                   0.75, 1 - 1e-16])
    def test_quantile_tails_match_scipy(self, p):
        reference = ndtri(p)
        assert abs(_ndtri(p) - reference) <= 8 * np.spacing(abs(reference))

    def test_quantile_edges_follow_scipy(self):
        p = np.array([0.0, 1.0, np.nan, -1e-300, -0.5, 1.0 + 1e-15, 2.0,
                      -np.inf, np.inf])
        got = _ndtri(p)
        np.testing.assert_array_equal(got, ndtri(p))
        np.testing.assert_array_equal(got[:2], [-np.inf, np.inf])
        assert np.isnan(got[2:]).all()

    def test_shapes_are_kept(self):
        assert _ndtri(0.5).shape == () and _ndtri(0.5) == 0.0
        assert _ndtri(np.zeros(0)).shape == (0,)
        assert _ndtri(np.full((2, 3), 0.25)).shape == (2, 3)
        assert _ndtr(np.zeros((3, 1))).shape == (3, 1)

    def test_cdf_matches_scipy(self):
        x = np.linspace(-30.0, 30.0, 60001)
        np.testing.assert_allclose(_ndtr(x), ndtr(x), rtol=2e-13, atol=0)
        np.testing.assert_array_equal(_ndtr([-np.inf, np.inf]), [0.0, 1.0])
        assert np.isnan(_ndtr(np.nan))


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
            points = engine.random(37).ravel()
        np.testing.assert_array_equal(_sobol_1d(37), points)
        assert_standard_normal_quantiles(sobol_standard_normal(37), points)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 256, 5000, 70000])
    def test_matches_scipy_power_of_two_block(self, n):
        bits = max(1, math.ceil(math.log2(n + 1)))
        block = qmc.Sobol(d=1, scramble=False).random_base2(bits).ravel()
        np.testing.assert_array_equal(_sobol_1d(n), block[1:n + 1])
        assert_standard_normal_quantiles(sobol_standard_normal(n),
                                         block[1:n + 1])

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
            def outputs(self, x, field_id, coords, work=None):
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


def obs_terms(model, x, observations):
    """Likelihood terms of ``observations`` on the nodes ``x``: each set's
    misfit moments about its values, with its noise variance."""
    return [(misfit_moments(model, x, o.field_id, o.coordinates, o.values),
             o.noise_variance) for o in observations]


class TestLogLikelihood:
    def setup_method(self):
        self.model = build_model("electromech")
        self.truth = np.array([11e3, 0.35])
        coords = np.linspace(0.0, 0.4, 6)
        outputs = self.model.outputs(self.truth, 1, coords)
        self.perfect = FieldObservations(field_id=1, coordinates=coords,
                                         values=outputs, noise_variance=1e-8)

    def test_perfect_fit_is_zero(self):
        assert log_likelihood(
            obs_terms(self.model, self.truth, [self.perfect])) == 0.0

    def test_single_observation_quadratic(self):
        # one scalar observation with residual r and variance s: -r^2/(2 s)
        coords = np.array([0.2])
        truth_out = self.model.outputs(self.truth, 1, coords)
        residual = 3e-4
        obs = FieldObservations(field_id=1, coordinates=coords,
                                values=truth_out + residual,
                                noise_variance=2.5e-7)
        value = log_likelihood(obs_terms(self.model, self.truth, [obs]))
        np.testing.assert_allclose(value, -residual**2 / (2 * 2.5e-7),
                                   rtol=1e-12)

    def test_empty_observation_list(self):
        assert log_likelihood([]) == 0.0

    def test_empty_observation_set_contributes_nothing(self):
        empty = FieldObservations(field_id=2, coordinates=np.zeros(0),
                                  values=np.zeros(0), noise_variance=1.0)
        assert log_likelihood(
            obs_terms(self.model, self.truth, [empty])) == 0.0

    def test_sum_over_fields(self):
        coords = np.linspace(0.0, 0.4, 4)
        obs1 = synthesize_observations(self.model, self.truth, 1, coords, 50.0)
        obs2 = synthesize_observations(self.model, self.truth, 2, coords, 80.0)
        x = np.array([9e3, 0.25])
        both = log_likelihood(obs_terms(self.model, x, [obs1, obs2]))
        separate = log_likelihood(obs_terms(self.model, x, [obs1])) \
            + log_likelihood(obs_terms(self.model, x, [obs2]))
        np.testing.assert_allclose(both, separate, rtol=1e-14)

    def test_failed_evaluation_is_minus_infinity(self):
        # nu close to 0.5 drives the current model inadmissible at 0.4 N
        coords = np.array([0.4])
        obs = synthesize_observations(self.model, self.truth, 2, coords, 100.0)
        bad_x = np.array([1e2, 0.4999])
        assert log_likelihood(obs_terms(self.model, bad_x, [obs])) == -np.inf

    def test_batched_parameters(self):
        coords = np.linspace(0.0, 0.4, 3)
        obs = synthesize_observations(self.model, self.truth, 1, coords, 50.0)
        grid = np.stack(np.meshgrid(np.linspace(8e3, 14e3, 4),
                                    np.linspace(0.1, 0.45, 5),
                                    indexing="ij"), axis=-1)
        values = log_likelihood(obs_terms(self.model, grid, [obs]))
        assert values.shape == (4, 5)
        one = log_likelihood(obs_terms(self.model, grid[2, 3], [obs]))
        np.testing.assert_allclose(values[2, 3], one, rtol=1e-14)

    def test_failed_nodes_counted_in_debug_log(self, caplog):
        coords = np.array([0.4])
        obs = synthesize_observations(self.model, self.truth, 2, coords, 100.0)
        nodes = np.array([self.truth, [1e2, 0.4999], self.truth])
        with caplog.at_level(logging.DEBUG, logger="mfbia.probabilistic"):
            values = log_likelihood(obs_terms(self.model, nodes, [obs]))
        assert np.isfinite(values[[0, 2]]).all() and values[1] == -np.inf
        assert [r.getMessage() for r in caplog.records
                if r.levelno == logging.DEBUG] == \
            ["log-likelihood is -inf at 1 of 3 points"]

    def test_raising_model_yields_sentinel(self):
        class Raising:
            def outputs(self, x, field_id, coords, work=None):
                raise RuntimeError("solver blew up")

        obs = FieldObservations(field_id=1, coordinates=np.array([0.1]),
                                values=np.array([1.0]), noise_variance=1.0)
        assert log_likelihood(obs_terms(Raising(), self.truth, [obs])) \
            == -np.inf


class TestMisfitMoments:
    """The moments ``a - 2*sigma*b + sigma^2*zz`` against the direct sum."""

    def setup_method(self):
        self.model = build_model("electromech")
        self.truth = np.array([11e3, 0.35])
        # nu up to 0.4999 at E = 1e2 Pa drives the current inadmissible at
        # the larger forces, so part of the grid is dead (-inf)
        self.nodes = np.stack(np.meshgrid(np.geomspace(1e2, 3e4, 30),
                                          np.linspace(0.0, 0.4999, 20),
                                          indexing="ij"), axis=-1)

    def moments(self, field_id, coords, nodes=None):
        centre = self.model.outputs(self.truth, field_id, coords)
        return misfit_moments(self.model,
                              self.nodes if nodes is None else nodes,
                              field_id, coords, centre,
                              sobol_standard_normal(centre.size))

    @pytest.mark.parametrize("field_id", [1, 2])
    def test_matches_log_likelihood_of_synthesized_data(self, field_id):
        coords = np.linspace(0.0, 0.4, 12)
        moments = self.moments(field_id, coords)
        dead_seen = False
        for snr in (0.5, 10.0, 80.0, 1.2e4, 1e8):
            obs = synthesize_observations(self.model, self.truth, field_id,
                                          coords, snr)
            direct = log_likelihood(obs_terms(self.model, self.nodes, [obs]))
            composed = log_likelihood([(moments, obs.noise_variance)])
            finite = np.isfinite(direct)
            np.testing.assert_array_equal(np.isfinite(composed), finite)
            assert not np.isnan(composed).any()
            np.testing.assert_allclose(composed[finite], direct[finite],
                                       rtol=1e-12, atol=0.0)
            dead_seen |= not finite.all()
        assert dead_seen == (field_id == 2)

    def test_file_observations_have_no_deviate_terms(self):
        coords = np.linspace(0.0, 0.4, 5)
        obs = synthesize_observations(self.model, self.truth, 1, coords, 50.0)
        moments = misfit_moments(self.model, self.nodes, 1, coords, obs.values)
        assert moments.zz == 0.0 and not moments.b.any()
        sum_sq = moments.sum_sq(obs.noise_variance)
        np.testing.assert_array_equal(sum_sq, moments.a)

    def test_non_finite_outputs_give_minus_infinity_never_nan(self):
        class Broken:
            """Outputs 1.0, with NaN at node 1 and +-inf at nodes 2 and 3."""

            def outputs(self, x, field_id, coords, work=None):
                x = np.asarray(x, dtype=float)
                out = np.ones(x.shape[:-1] + (len(coords),))
                out[..., 0] = np.where(x[..., 0] == 1, np.nan, out[..., 0])
                out[..., 1] = np.where(x[..., 0] == 2, np.inf, out[..., 1])
                out[..., 2] = np.where(x[..., 0] == 3, -np.inf, out[..., 2])
                return out

        nodes = np.array([[0.0], [1.0], [2.0], [3.0]])
        coords = np.array([0.1, 0.2, 0.3])
        moments = misfit_moments(Broken(), nodes, 1, coords,
                                 np.zeros(3), np.array([0.5, -1.0, 2.0]))
        np.testing.assert_array_equal(moments.a, [3.0, np.inf, np.inf, np.inf])
        np.testing.assert_array_equal(moments.b, [1.5, 0.0, 0.0, 0.0])
        for noise in (1e-6, 1.0, 1e6):
            value = log_likelihood([(moments, noise)])
            assert np.isfinite(value[0])
            np.testing.assert_array_equal(value[1:], -np.inf)
        obs = FieldObservations(field_id=1, coordinates=coords,
                                values=np.zeros(3), noise_variance=1.0)
        np.testing.assert_array_equal(
            log_likelihood(obs_terms(Broken(), nodes, [obs])),
            [-1.5, -np.inf, -np.inf, -np.inf])

    def test_blocks_match_row_by_row_evaluation(self):
        class Counting:
            """The electromech model, recording each call's output count."""

            def __init__(self, model):
                self.model, self.sizes = model, []

            def outputs(self, x, field_id, coords, work=None):
                out = self.model.outputs(x, field_id, coords, work)
                self.sizes.append(out.size)
                return out

        coords = np.linspace(0.0, 0.4, 256)
        nodes = np.stack(np.meshgrid(np.geomspace(1e2, 3e4, 40),
                                     np.linspace(0.0, 0.4999, 40),
                                     indexing="ij"), axis=-1)
        assert nodes[..., 0].size * coords.size > 3 * MISFIT_BLOCK_ELEMENTS
        counting = Counting(self.model)
        for field_id in (1, 2):
            counting.sizes.clear()
            centre = self.model.outputs(self.truth, field_id, coords)
            deviates = sobol_standard_normal(centre.size)
            blocked = misfit_moments(counting, nodes, field_id, coords,
                                     centre, deviates)
            assert len(counting.sizes) > 3
            assert max(counting.sizes) <= MISFIT_BLOCK_ELEMENTS
            for index in np.ndindex(nodes.shape[:-1]):
                one = misfit_moments(self.model, nodes[index], field_id,
                                     coords, centre, deviates)
                assert blocked.a[index] == one.a
                assert blocked.b[index] == one.b
            obs = synthesize_observations(self.model, self.truth, field_id,
                                          coords, 80.0)
            grid = log_likelihood(obs_terms(self.model, nodes, [obs]))
            rows = [log_likelihood(obs_terms(self.model, nodes[index], [obs]))
                    for index in np.ndindex(nodes.shape[:-1])]
            np.testing.assert_array_equal(grid.ravel(), rows)


class TestMisfitThreads:
    """Row blocks reduced on a thread pool keep every bit."""

    @pytest.fixture(scope="class")
    def problem(self):
        # 100x100 nodes x 256 forces; nu up to 0.4999 at E = 1e2 Pa makes
        # part of the grid inadmissible for the current (NaN -> inf)
        model = build_model("electromech")
        nodes = np.stack(np.meshgrid(np.geomspace(1e2, 3e4, 100),
                                     np.linspace(0.0, 0.4999, 100),
                                     indexing="ij"), axis=-1)
        coords = np.linspace(0.0, 0.4, 256)
        centre = model.outputs(np.array([11e3, 0.35]), 2, coords)
        return (model, nodes, 2, coords, centre,
                sobol_standard_normal(centre.size))

    @staticmethod
    def bits(moments):
        return (moments.a.view(np.int64), moments.b.view(np.int64),
                np.array(moments.zz).view(np.int64))

    def test_bits_independent_of_threads_and_block_size(self, problem,
                                                        monkeypatch):
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 1)
        reference = self.bits(misfit_moments(*problem))
        dead = np.isinf(reference[0].view(float))
        assert dead.any() and not dead.all()
        # switch threads often, so that a block writing outside its own
        # rows would show as changed bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for elements in (2 ** 16, 2 ** 17, 99_999):
                for threads in (1, 2, 3):
                    monkeypatch.setattr(probabilistic,
                                        "MISFIT_BLOCK_ELEMENTS", elements)
                    monkeypatch.setattr(probabilistic, "usable_cpus",
                                        lambda: threads)
                    got = self.bits(misfit_moments(*problem))
                    for want, have in zip(reference, got):
                        np.testing.assert_array_equal(have, want)
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_the_call(self, problem, monkeypatch):
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 3)
        before = threading.active_count()
        misfit_moments(*problem)
        assert threading.active_count() == before

    def test_threads_capped_whatever_the_cpu_count(self, monkeypatch):
        class CountsThreads:
            """Zero outputs; records the live thread count per batch."""

            def __init__(self):
                self.live = []

            def outputs(self, x, field_id, coords, work=None):
                self.live.append(threading.active_count())
                time.sleep(1e-3)  # so the pool starts all its threads
                return np.zeros(x.shape[:-1] + (len(coords),))

        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 16)
        # fifty row blocks of two nodes x four coordinates
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 8)
        model = CountsThreads()
        before = threading.active_count()
        misfit_moments(model, np.arange(100.0)[:, None], 1, np.arange(4.0),
                       np.zeros(4))
        assert len(model.live) == 50
        assert before < max(model.live) <= \
            before + probabilistic.MISFIT_MAX_THREADS

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_thread_reuses_one_workspace(self, monkeypatch, threads):
        class Spy:
            """Zero outputs in float slot 0 of the workspace; records each
            block's thread, outputs and workspace."""

            def __init__(self):
                self.calls = []

            def outputs(self, x, field_id, coords, work=None):
                out = work.floats(0, x.shape[:-1] + (len(coords),))
                out[...] = 0.0
                self.calls.append((threading.get_ident(), out,
                                   weakref.ref(work)))
                time.sleep(1e-3)  # so that every thread takes blocks
                return out

        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: threads)
        # eleven row blocks of two nodes x four coordinates, the last one
        # a single node
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 8)
        model = Spy()
        moments = misfit_moments(model, np.arange(21.0)[:, None], 1,
                                 np.arange(4.0), np.ones(4), np.ones(4))
        np.testing.assert_array_equal(moments.a, 4.0)
        np.testing.assert_array_equal(moments.b, -4.0)
        assert len(model.calls) == 11
        assert sorted(len(out) for _, out, _ in model.calls) == \
            [1] + [2] * 10
        by_thread = {}
        for thread, out, _ in model.calls:
            by_thread.setdefault(thread, []).append(out)
        # a thread that starts late may find no block left
        assert 1 <= len(by_thread) <= threads
        for outs in by_thread.values():
            assert all(np.shares_memory(first, later)
                       for first, later in zip(outs, outs[1:]))
        firsts = [outs[0] for outs in by_thread.values()]
        assert not any(np.shares_memory(one, other)
                       for one, other in zip(firsts, firsts[1:]))
        assert all(work() is None for _, _, work in model.calls)

    def test_reduction_allocates_only_the_buffers_requested(self,
                                                            monkeypatch):
        made = []

        class Recorded(probabilistic._Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(probabilistic, "_Workspace", Recorded)
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 2)
        nodes = np.stack(np.meshgrid(np.linspace(0.1, 1.0, 60),
                                     np.linspace(0.1, 1.0, 60),
                                     indexing="ij"), axis=-1)
        coords = np.linspace(0.0, 1.0, 64)
        truth = np.array([0.5, 0.5])
        # the toy model ignores the workspace: the reduction's residual
        # and its product with the deviates are all it holds
        toy = build_model("toy-full")
        centre = toy.outputs(truth, 1, coords)
        misfit_moments(toy, nodes, 1, coords, centre,
                       sobol_standard_normal(centre.size))
        # a thread that started after the last block was taken holds none
        assert len(made) == 2
        assert [set(work._buffers) for work in made if work._buffers] in (
            [{(float, 1), (float, 2)}], [{(float, 1), (float, 2)}] * 2)
        rows = MISFIT_BLOCK_ELEMENTS // coords.size
        assert all(buffer.size <= rows * coords.size for work in made
                   for buffer in work._buffers.values())
        made.clear()
        misfit_moments(toy, nodes, 1, coords, centre)
        assert {(float, 1)} in [set(work._buffers) for work in made]
        assert all(set(work._buffers) <= {(float, 1)} for work in made)
        # the electromech kernels add their own result, to three floats and
        # two masks per thread
        made.clear()
        model = build_model("electromech")
        grid = nodes * [3e4, 0.49]
        centre = model.outputs(truth * [3e4, 0.49], 2, coords)
        misfit_moments(model, grid, 2, coords, centre,
                       sobol_standard_normal(centre.size))
        assert len(made) == 2
        full = {(float, 0), (float, 1), (float, 2), (bool, 0), (bool, 1)}
        assert full in [set(work._buffers) for work in made]
        assert all(set(work._buffers) in (set(), full) for work in made)

    def test_raise_in_one_block_fails_every_node(self, monkeypatch, caplog):
        class FailsInOneBlock:
            """Zero outputs; raises on the batch that holds node 25."""

            def outputs(self, x, field_id, coords, work=None):
                if np.any(x[..., 0] == 25):
                    raise ValueError("solver diverged")
                return np.zeros(x.shape[:-1] + (len(coords),))

        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 40)
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 2)
        nodes = np.arange(100.0)[:, None]
        with caplog.at_level(logging.WARNING, logger="mfbia.probabilistic"):
            moments = misfit_moments(FailsInOneBlock(), nodes, 1,
                                     np.arange(4.0), np.ones(4), np.ones(4))
        np.testing.assert_array_equal(moments.a, np.inf)
        np.testing.assert_array_equal(moments.b, 0.0)
        assert [r.getMessage() for r in caplog.records] == \
            ["model evaluation failed for field 1: solver diverged"]

    def test_blocks_run_under_the_callers_errstate(self, monkeypatch):
        class DividesByZero:
            """1/x[0] at every coordinate: inf at node 0."""

            def outputs(self, x, field_id, coords, work=None):
                return np.ones(len(coords)) / x[..., :1]

        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 8)
        monkeypatch.setattr(probabilistic, "usable_cpus", lambda: 2)
        nodes = np.arange(10.0)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore"):
                moments = misfit_moments(DividesByZero(), nodes, 1,
                                         np.arange(4.0), np.zeros(4))
        assert moments.a[0] == np.inf and np.isfinite(moments.a[1:]).all()
        with np.errstate(divide="raise"):
            moments = misfit_moments(DividesByZero(), nodes, 1,
                                     np.arange(4.0), np.zeros(4))
        np.testing.assert_array_equal(moments.a, np.inf)


class FailsAtNode:
    """Zero outputs, with a 1 ms pause; raises ``error`` on the batch
    that holds node 25.  Records, per call, whether it had raised
    before."""

    def __init__(self, error):
        self.error, self.raised, self.calls = error, False, []

    def outputs(self, x, field_id, coords, work=None):
        self.calls.append(self.raised)
        if np.any(x[..., 0] == 25):
            self.raised = True
            raise self.error
        time.sleep(1e-3)
        return np.zeros(x.shape[:-1] + (len(coords),))


def reduced_alone(*problem) -> MisfitMoments:
    """The moments of ``problem`` reduced on the calling thread alone."""
    with ReductionPool(1) as pool:
        return pool.submit(*problem).result()


class TestReductionPool:
    """Row blocks of several reductions on one queue."""

    @pytest.fixture
    def toy(self, monkeypatch):
        # blocks of 640 outputs: ten rows of 64 coordinates
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 640)
        model = build_model("toy-full")
        nodes = np.stack(np.meshgrid(np.linspace(0.1, 1.0, 30),
                                     np.linspace(0.1, 1.0, 30),
                                     indexing="ij"), axis=-1)
        coords = np.linspace(0.0, 1.0, 64)
        centre = model.outputs(np.array([0.5, 0.5]), 2, coords)
        return (model, nodes, 2, coords, centre,
                sobol_standard_normal(centre.size))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_raise_in_one_reduction_fails_only_its_nodes(self, toy, threads,
                                                         caplog):
        alone = reduced_alone(*toy)
        failing = FailsAtNode(ValueError("solver diverged"))
        before = set(threading.enumerate())
        with caplog.at_level(logging.WARNING, logger="mfbia.probabilistic"):
            with ReductionPool(threads) as pool:
                first = pool.submit(*toy)
                # 100 nodes x 64 coordinates in ten blocks; node 25 is in
                # the third
                broken = pool.submit(failing, np.arange(100.0)[:, None], 1,
                                     np.arange(64.0), np.ones(64))
                last = pool.submit(*toy)
                moments = [r.result() for r in (last, broken, first)]
        assert set(threading.enumerate()) == before
        np.testing.assert_array_equal(moments[1].a, np.inf)
        np.testing.assert_array_equal(moments[1].b, 0.0)
        for good in (moments[0], moments[2]):
            for want, have in ((alone.a, good.a), (alone.b, good.b)):
                np.testing.assert_array_equal(have.view(np.int64),
                                              want.view(np.int64))
            assert good.zz == alone.zz
        assert [r.getMessage() for r in caplog.records] == \
            ["model evaluation failed for field 1: solver diverged"]
        # the blocks after the failed one are skipped
        assert len(failing.calls) < 10

    def test_reductions_sharing_the_queue_keep_their_bits(self, toy):
        # more threads than CPUs, switching often, so that a lost update
        # of a reduction's block count would hang its result() and a
        # block written into another reduction's rows would change bits
        model, nodes, field_id, coords, centre, deviates = toy
        cases = [(nodes[:k], coords[:m], centre[:m], deviates[:m])
                 for k in (30, 7, 1, 19) for m in (64, 5)]
        alone = [reduced_alone(model, x, field_id, c, t, z)
                 for x, c, t, z in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                with ReductionPool(4) as pool:
                    reductions = [pool.submit(model, x, field_id, c, t, z)
                                  for x, c, t, z in cases]
                    shared = [r.result() for r in reversed(reductions)][::-1]
                for want, have in zip(alone, shared):
                    np.testing.assert_array_equal(have.a.view(np.int64),
                                                  want.a.view(np.int64))
                    np.testing.assert_array_equal(have.b.view(np.int64),
                                                  want.b.view(np.int64))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_other_exception_stops_the_pool(self, monkeypatch, threads):
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 640)
        model = FailsAtNode(LookupError("not a model failure"))
        before = set(threading.enumerate())
        with ReductionPool(threads) as pool:
            # 100 nodes x 64 coordinates each, ten blocks of ten rows
            nodes = np.arange(100.0)[:, None]
            reductions = [pool.submit(model, nodes, 1, np.arange(64.0),
                                      np.ones(64))
                          for _ in range(2)]
            # every later result raises it too
            for reduction in reversed(reductions):
                with pytest.raises(LookupError, match="not a model failure"):
                    reduction.result()
            # long enough for a helper thread to take the ~17 blocks left
            time.sleep(0.05)
        assert set(threading.enumerate()) == before
        # no queued block starts once the error is recorded; a helper
        # thread may have been between two blocks of its own
        assert model.calls.count(True) <= 2 * (threads - 1)
        assert len(model.calls) < 20
        if threads == 1:
            assert model.calls == [False] * 3

    def test_helpers_end_after_a_fatal_error(self, monkeypatch):
        # before the pool closes: no helper idles on a stopped pool
        monkeypatch.setattr(probabilistic, "MISFIT_BLOCK_ELEMENTS", 640)
        model = FailsAtNode(LookupError("not a model failure"))
        with ReductionPool(3) as pool:
            reduction = pool.submit(model, np.arange(100.0)[:, None], 1,
                                    np.arange(64.0), np.ones(64))
            assert len(pool._helpers) == 2
            with pytest.raises(LookupError, match="not a model failure"):
                reduction.result()
            for helper in pool._helpers:
                helper.join(timeout=5.0)
                assert not helper.is_alive()


class TestPrior:
    @pytest.mark.parametrize("mean,variance", [
        ([np.nan, 0.3], [4e6, 0.0225]),
        ([np.inf, 0.3], [4e6, 0.0225]),
        ([1e4, 0.3], [np.inf, 0.0225]),
        ([1e4, 0.3], [4e6, np.nan]),
    ])
    def test_rejects_non_finite(self, mean, variance):
        with pytest.raises(ValueError, match="must be finite"):
            TruncatedNormalPrior(mean=mean, variance=variance,
                                 lower=[0.0, 0.0], upper=[np.inf, 0.5])

    def test_outside_bounds(self, material_prior):
        assert material_prior.log_density(np.array([-1.0, 0.2])) == -np.inf
        assert material_prior.log_density(np.array([1e4, 0.6])) == -np.inf

    def test_equals_broadcast_formula(self):
        # summed one dimension at a time, the density keeps the bits of the
        # whole-array expression summed over a short last axis
        prior = TruncatedNormalPrior(mean=[1.0, -0.5, 3.0],
                                     variance=[0.25, 2.0, 0.5],
                                     lower=[0.0, -4.0, 1.0],
                                     upper=[np.inf, 1.0, 4.0])
        x = np.random.default_rng(7).normal([1.0, -0.5, 3.0], 2.0,
                                            size=(30, 40, 3))
        z = (x - prior.mean) / prior.sd
        per_dim = (-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                   - np.log(prior.sd) - prior._log_partition())
        inside = (x >= prior.lower) & (x <= prior.upper)
        broadcast = np.where(inside, per_dim, -np.inf).sum(axis=-1)
        assert np.isneginf(broadcast).any() and np.isfinite(broadcast).any()
        assert np.array_equal(prior.log_density(x), broadcast)
        assert prior.log_density(x[3, 4]) == broadcast[3, 4]

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

    @pytest.mark.parametrize("lower,upper", [
        (22e3, np.inf),   # 6 sd above the mean: Phi(a) = 1 - 1e-9
        (28e3, np.inf),   # 9 sd: Phi(a) rounds to 1
        (28e3, 40e3),
    ])
    def test_upper_tail_box_matches_scipy_truncnorm(self, lower, upper):
        prior = TruncatedNormalPrior(mean=[10e3, 0.3], variance=[4e6, 0.0225],
                                     lower=[lower, 0.0], upper=[upper, 0.5])
        a, b = (lower - 10e3) / 2e3, (upper - 10e3) / 2e3
        q = (np.arange(20) + 0.5) / 20
        x = prior.marginal_ppf(0, q)
        np.testing.assert_allclose(
            x, stats.truncnorm.ppf(q, a, b, loc=10e3, scale=2e3),
            rtol=0, atol=1e-12 * 2e3)
        nodes = np.stack([x, np.full(20, 0.35)], axis=-1)
        reference = (
            stats.truncnorm.logpdf(x, a, b, loc=10e3, scale=2e3)
            + stats.truncnorm.logpdf(0.35, -2.0, 4.0 / 3.0,
                                     loc=0.3, scale=0.15))
        np.testing.assert_allclose(prior.log_density(nodes), reference,
                                   rtol=1e-12)

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

    FIELDS = ("mean", "variance", "lower", "upper")

    def test_equality_compares_values(self, material_prior):
        twin = TruncatedNormalPrior(**{
            name: getattr(material_prior, name).tolist()
            for name in self.FIELDS})
        assert twin is not material_prior
        assert twin == material_prior and not twin != material_prior

    @pytest.mark.parametrize("field,value", [
        ("mean", [10e3, 0.31]),
        ("variance", [4e6, 0.04]),
        ("lower", [-np.inf, 0.0]),
        ("upper", [np.inf, 0.6]),
    ])
    def test_inequality(self, material_prior, field, value):
        values = {name: getattr(material_prior, name) for name in self.FIELDS}
        other = TruncatedNormalPrior(**{**values, field: value})
        assert other != material_prior and not other == material_prior

    def test_inequality_across_dimensions_and_types(self, material_prior):
        one_d = TruncatedNormalPrior(mean=[10e3], variance=[4e6],
                                     lower=[0.0], upper=[np.inf])
        assert one_d != material_prior
        assert material_prior != tuple(material_prior.mean)

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
        write_csv(path, OBSERVATION_CSV_HEADER, [])
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

    @pytest.mark.parametrize("row,message", [
        ("x,0.0,1.0,1.0,", "line 2, column 'field_id': expected a number"),
        ("1,0.0,1.0,1.0,high", "line 2, column 'snr': expected a number"),
        ("1,0.0,1.0,nan,", "column 'sigma2' must be finite and > 0, got nan"),
        ("1,0.0,1.0,inf,", "column 'sigma2' must be finite and > 0, got inf"),
        ("1,0.0,1.0", "line 2: expected 5 columns, got 3"),
        ("0,0.0,1.0,1.0,", "field_id must be >= 1"),
    ])
    def test_malformed_cell_named(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"field_id,coordinate,value,sigma2,snr\n{row}\n")
        with pytest.raises(ObservationFileError) as raised:
            observations_from_csv(path)
        assert str(raised.value).startswith(f"{path}: ")
        assert message in str(raised.value)

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

    @pytest.mark.parametrize("variance", [np.inf, np.nan])
    def test_non_finite_variance(self, variance):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            FieldObservations(field_id=1, coordinates=np.array([0.1]),
                              values=np.array([1.0]),
                              noise_variance=variance)

    def test_bad_field_id(self):
        with pytest.raises(ValueError):
            FieldObservations(field_id=0, coordinates=np.array([0.1]),
                              values=np.array([1.0]), noise_variance=1.0)
