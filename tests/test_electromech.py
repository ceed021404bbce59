import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfbia.coupled import NewtonSettings, newton_solve
from mfbia.electromech import (
    AdmissibilityError,
    DEFAULT_SIDE_LENGTH,
    ElectromechParams,
    coupled_system,
    cross_section_radicand,
    current_batch,
    displacement_batch,
    jacobian,
    residual_elec,
    residual_mech,
)
from mfbia.models import ElectromechModel

L0 = DEFAULT_SIDE_LENGTH

# independent bisection oracle for the mechanical root at
# F = 0.4 N, E = 11 kPa, nu = 0.35 (200 halvings of [0, l0])
DSTAR = 0.002320626529977726
ISTAR = 0.06892257756975034


def bisect_mech_root(params: ElectromechParams, force: float,
                     lo: float = 0.0, hi: float = L0) -> float:
    def f(d):
        return (2 * params.side_length**2 * d + 3 * params.side_length * d * d
                + d**3 - 2 * force * params.side_length
                / params.youngs_modulus * (1 - params.poisson_ratio**2))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def batch_state(params: ElectromechParams, force) -> tuple:
    """(d, I) from the grid forward path."""
    d = displacement_batch(params.youngs_modulus, params.poisson_ratio,
                           force, side_length=params.side_length)
    current = current_batch(params.poisson_ratio, d,
                            side_length=params.side_length,
                            voltage=params.voltage,
                            resistivity=params.resistivity)
    return d, current


def monolithic_state(params: ElectromechParams, force: float) -> np.ndarray:
    """[d, I] from the monolithic Newton solve of the coupled system."""
    return newton_solve(
        coupled_system(params, force),
        NewtonSettings(initial_state=np.array([0.0, params.rest_current]),
                       residual_tolerance=1e-15)).state


class TestResiduals:
    def test_mech_zero_at_rest(self, truth_params):
        assert residual_mech(0.0, truth_params, 0.0) == 0.0

    def test_mech_load_term(self, truth_params):
        value = residual_mech(0.0, truth_params, 0.4)
        expected = -2 * 0.4 * 0.01 * (1 - 0.35**2) / 11e3
        np.testing.assert_allclose(value, expected, rtol=1e-15)
        np.testing.assert_allclose(value, -6.381818181818183e-07, rtol=1e-14)

    def test_mech_vanishes_at_bisection_root(self, truth_params):
        assert abs(residual_mech(DSTAR, truth_params, 0.4)) < 1e-15

    def test_elec_zero_at_rest_current(self, truth_params):
        assert residual_elec(0.0, truth_params.rest_current, truth_params) \
            == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("poisson", [0.0, 0.2, 0.35, 0.49])
    def test_rest_current_independent_of_poisson(self, poisson):
        params = ElectromechParams(youngs_modulus=9e3, poisson_ratio=poisson)
        assert current_batch(poisson, 0.0) == pytest.approx(0.1, rel=1e-14)

    def test_elec_open_circuit(self, truth_params):
        value = residual_elec(0.0, 0.0, truth_params)
        np.testing.assert_allclose(value, -1e-3, rtol=1e-12)

    def test_elec_no_lateral_contraction(self):
        # nu = 0: the cross-section never shrinks, I = U*l0^2 / (rho*(l0+d))
        params = ElectromechParams(youngs_modulus=11e3, poisson_ratio=0.0)
        for d in (0.0, 1e-3, 5e-3):
            current = (params.voltage * params.side_length**2
                       / (params.resistivity * (params.side_length + d)))
            assert residual_elec(d, current, params) == pytest.approx(0.0, abs=1e-18)

    def test_mech_rejects_nonfinite(self, truth_params):
        with pytest.raises(ValueError):
            residual_mech(np.nan, truth_params, 0.1)
        with pytest.raises(ValueError):
            residual_mech(0.0, truth_params, np.inf)

    def test_mech_rejects_collapsed_cube(self, truth_params):
        with pytest.raises(AdmissibilityError):
            residual_mech(-2 * L0, truth_params, 0.0)

    def test_elec_rejects_inadmissible_contraction(self, truth_params):
        # for nu = 0.35 the radicand turns negative near d = 6.9 mm
        with pytest.raises(AdmissibilityError):
            residual_elec(8e-3, 0.1, truth_params)


class TestJacobian:
    def test_rest_state_entries(self, truth_params):
        matrix = jacobian([0.0, truth_params.rest_current], truth_params, 0.0)
        np.testing.assert_allclose(matrix[0, 0], 2e-4, rtol=1e-14)
        assert matrix[0, 1] == 0.0
        np.testing.assert_allclose(matrix[1, 1], 1e-2, rtol=1e-14)

    def test_upper_right_zero_everywhere(self, truth_params):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = [rng.uniform(-1e-3, 4e-3), rng.uniform(0.0, 0.3)]
            assert jacobian(state, truth_params, 0.1)[0, 1] == 0.0

    def test_inadmissible_state_rejected(self, truth_params):
        with pytest.raises(AdmissibilityError):
            jacobian([8e-3, 0.1], truth_params, 0.1)


class TestEvaluate:
    def test_zero_force_exact(self, truth_params):
        d, current = batch_state(truth_params, 0.0)
        assert d == 0.0
        assert current == 0.1
        np.testing.assert_array_equal(monolithic_state(truth_params, 0.0),
                                      [0.0, 0.1])

    def test_matches_bisection_oracle(self, truth_params):
        for state in (batch_state(truth_params, 0.4),
                      monolithic_state(truth_params, 0.4)):
            np.testing.assert_allclose(state[0], DSTAR, rtol=1e-10)
            np.testing.assert_allclose(state[1], ISTAR, rtol=1e-10)

    def test_small_force_linearization(self, truth_params):
        force = 1e-4
        d, _ = batch_state(truth_params, force)
        linear = (force * (1 - truth_params.poisson_ratio**2)
                  / (truth_params.youngs_modulus * truth_params.side_length))
        np.testing.assert_allclose(d, linear, rtol=1e-2)

    def test_negative_force_rejected(self):
        model = ElectromechModel()
        model.check_coords([0.0, 0.4])
        with pytest.raises(ValueError, match="force must be >= 0"):
            model.check_coords([-0.1, 0.4])

    def test_doubling_stiffness_halves_small_strain_displacement(self):
        d_soft = displacement_batch(11e3, 0.35, 1e-4)
        d_stiff = displacement_batch(22e3, 0.35, 1e-4)
        np.testing.assert_allclose(d_stiff, d_soft / 2, rtol=1e-2)

    def test_resistance_grows_only_with_length_at_nu_zero(self):
        params = ElectromechParams(youngs_modulus=8e3, poisson_ratio=0.0)
        for force in (0.05, 0.2, 0.4):
            d, current = batch_state(params, force)
            lhs = params.resistivity * current * (params.side_length + d)
            rhs = params.voltage * params.side_length**2
            np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    @given(st.integers(0, 4000), st.integers(0, 4000))
    def test_displacement_monotone_in_force(self, k_a, k_b):
        # forces quantized to 1e-4 N so that displacement differences stay
        # far above the solver's resolution floor
        f_a, f_b = k_a * 1e-4, k_b * 1e-4
        d_a, d_b = displacement_batch(11e3, 0.35, [f_a, f_b])
        if f_a < f_b:
            assert d_a < d_b
        elif f_a > f_b:
            assert d_a > d_b


class TestSweep:
    def test_empty(self, truth_params):
        d, current = batch_state(truth_params, np.array([]))
        assert d.shape == current.shape == (0,)

    def test_single_zero_force(self, truth_params):
        d, current = batch_state(truth_params, np.array([0.0]))
        np.testing.assert_array_equal(d, [0.0])
        np.testing.assert_array_equal(current, [0.1])

    def test_matches_per_point_bisection(self, truth_params):
        forces = np.linspace(0.0, 0.4, 16)
        d, _ = batch_state(truth_params, forces)
        for k, force in enumerate(forces):
            oracle = bisect_mech_root(truth_params, force)
            np.testing.assert_allclose(d[k], oracle, rtol=1e-10, atol=1e-18)

    def test_failure_reports_index(self):
        # an absurdly soft cube stretches past the admissibility limit at
        # 0.4 N: that entry, and only that one, comes back as NaN
        params = ElectromechParams(youngs_modulus=1e-3, poisson_ratio=0.35)
        _, current = batch_state(params, np.array([0.0, 0.4]))
        assert current[0] == 0.1
        assert np.isnan(current[1])


class TestBatchPaths:
    def test_displacement_batch_matches_scalar_solver(self, truth_params):
        rng = np.random.default_rng(11)
        youngs = rng.uniform(6e3, 16e3, size=12)
        poisson = rng.uniform(0.05, 0.45, size=12)
        forces = rng.uniform(0.0, 0.4, size=12)
        batch = displacement_batch(youngs, poisson, forces)
        for k in range(12):
            params = ElectromechParams(youngs_modulus=youngs[k],
                                       poisson_ratio=poisson[k])
            reference = monolithic_state(params, forces[k])[0]
            np.testing.assert_allclose(batch[k], reference,
                                       rtol=1e-9, atol=1e-11)

    def test_current_batch_matches_closed_form(self, truth_params):
        # f2 is linear in I with slope rho*(l0 + d), so a relative residual
        # of 1e-14 is a relative current error of 1e-14
        d = np.linspace(0.0, 3e-3, 7)
        batch = current_batch(truth_params.poisson_ratio, d)
        for k in range(d.size):
            scale = (truth_params.voltage * truth_params.side_length
                     * np.sqrt(cross_section_radicand(d[k], truth_params)))
            assert abs(residual_elec(d[k], batch[k], truth_params)) \
                <= 1e-14 * scale
        np.testing.assert_allclose(
            current_batch(truth_params.poisson_ratio, DSTAR), ISTAR,
            rtol=1e-14)

    def test_current_batch_nan_when_inadmissible(self):
        out = current_batch(0.35, np.array([0.0, 8e-3]))
        assert np.isfinite(out[0])
        assert np.isnan(out[1])


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"youngs_modulus": 0.0, "poisson_ratio": 0.3},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.5},
        {"youngs_modulus": 1e4, "poisson_ratio": -0.1},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "side_length": 0.0},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "resistivity": 0.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ElectromechParams(**kwargs)

    def test_rest_current(self, truth_params):
        assert truth_params.rest_current == pytest.approx(0.1, rel=1e-15)
