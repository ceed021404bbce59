import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfbia.coupled import NewtonSettings, newton_solve
from mfbia.electromech import (
    AdmissibilityError,
    DEFAULT_SIDE_LENGTH,
    ElectromechParams,
    _cardano_displacement,
    coupled_system,
    cross_section_radicand,
    current_batch,
    displacement_batch,
    jacobian,
    residual_elec,
    residual_mech,
)
from mfbia.models import ElectromechModel
from mfbia.probabilistic import _Workspace

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


def mech_load(youngs, poisson, force) -> np.ndarray:
    """The load term, formed exactly as ``displacement_batch`` forms it."""
    youngs, poisson, force = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (youngs, poisson, force)))
    return np.asarray(2.0 * force * L0 / youngs * (1.0 - poisson**2))


def cardano_s(youngs, poisson, force):
    """The branch parameter s = (3*sqrt(3)/2) * load / l0^3."""
    return 1.5 * np.sqrt(3.0) * mech_load(youngs, poisson, force) / L0**3


def closed_form(youngs, poisson, force) -> np.ndarray:
    """The closed-form root alone, checked to be the batch path's result:
    every entry passes the residual check unchanged."""
    d = _cardano_displacement(mech_load(youngs, poisson, force), L0)
    assert np.array_equal(displacement_batch(youngs, poisson, force), d)
    return d


def branch_switch_force(params: ElectromechParams) -> float:
    """The force at which s = 1, to rounding."""
    return (params.side_length**2 * params.youngs_modulus
            / (3 * np.sqrt(3.0) * (1 - params.poisson_ratio**2)))


class TestClosedForm:
    @pytest.mark.parametrize("scale", [0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0])
    def test_matches_references_on_both_branches(self, truth_params, scale):
        force = scale * branch_switch_force(truth_params)
        d = closed_form(11e3, 0.35, force)
        np.testing.assert_allclose(
            d, monolithic_state(truth_params, force)[0], rtol=1e-13)
        np.testing.assert_allclose(
            d, bisect_mech_root(truth_params, force), rtol=1e-14)

    def test_branch_switch_ulps(self, truth_params):
        # forces a few ulps either side of s = 1 take both branches
        force = branch_switch_force(truth_params)
        forces = [force]
        for _ in range(4):
            forces = ([np.nextafter(forces[0], 0.0)] + forces
                      + [np.nextafter(forces[-1], 1.0)])
        s = cardano_s(11e3, 0.35, forces)
        assert s.min() < 1.0 < s.max()
        d = closed_form(11e3, 0.35, forces)
        for k, f in enumerate(forces):
            np.testing.assert_allclose(
                d[k], monolithic_state(truth_params, f)[0], rtol=1e-13)
            np.testing.assert_allclose(
                d[k], bisect_mech_root(truth_params, f), rtol=1e-14)
        assert np.all(np.diff(d) >= 0)

    @pytest.mark.parametrize("poisson", [0.0, 0.2, 0.49])
    def test_wide_parameter_range(self, poisson):
        youngs = np.geomspace(1e-3, 1e12, 16)[:, None]
        forces = np.concatenate([[0.0], np.geomspace(1e-6, 100.0, 12)])
        s = cardano_s(youngs, poisson, forces)
        assert s.min() < 1.0 < s.max()
        d = closed_form(youngs, poisson, forces)
        assert np.all(d[:, 0] == 0.0)       # zero force: exactly 0.0
        for i, e in enumerate(youngs[:, 0]):
            params = ElectromechParams(youngs_modulus=e, poisson_ratio=poisson)
            for k, f in enumerate(forces[1:], start=1):
                # d^3 <= load and 2*l0^2*d <= load bracket the root
                load = mech_load(e, poisson, f)
                hi = max(L0, min(np.cbrt(load), load / (2 * L0**2)))
                np.testing.assert_allclose(
                    d[i, k], bisect_mech_root(params, f, hi=hi), rtol=1e-13)

    def test_scalar_input_gives_scalar(self, truth_params):
        # 0.1 N takes the trigonometric branch, 0.4 N the hyperbolic one
        assert cardano_s(11e3, 0.35, 0.1) < 1.0 < cardano_s(11e3, 0.35, 0.4)
        for force in (0.1, 0.4):
            d = displacement_batch(11e3, 0.35, force)
            assert isinstance(d, np.float64)
            assert d == displacement_batch([11e3], [0.35], [force])[0]
            np.testing.assert_allclose(
                d, bisect_mech_root(truth_params, force), rtol=1e-14)

    @pytest.mark.parametrize("youngs,poisson,force", [
        (11e3, 0.35, np.nan), (11e3, 0.35, np.inf), (11e3, 0.35, -np.inf),
        (np.nan, 0.35, 0.4), (11e3, np.nan, 0.4), (0.0, 0.35, 0.4),
    ])
    def test_nonfinite_input_gives_nan(self, youngs, poisson, force):
        with np.errstate(divide="ignore"):
            assert np.isnan(displacement_batch(youngs, poisson, force))
            d = displacement_batch(youngs, poisson, [force, force])
        assert np.all(np.isnan(d))

    def test_no_nan_on_a_million_random_points(self):
        # every entry passes the residual check over the README's ranges
        rng = np.random.default_rng(2024)
        youngs = 10.0 ** rng.uniform(-3.0, 12.0, 10**6)
        poisson = rng.uniform(0.0, 0.5, 10**6)
        force = 10.0 ** rng.uniform(-8.0, 3.0, 10**6)
        d = displacement_batch(youngs, poisson, force)
        assert not np.isnan(d).any()

    def test_root_failing_the_residual_check_gives_nan(self, monkeypatch):
        # the residual check is the only verification of the closed form:
        # a root off by 1e-6 relative must come back NaN, not be repaired
        cardano = _cardano_displacement
        monkeypatch.setattr(
            "mfbia.electromech._cardano_displacement",
            lambda load, l0, work: cardano(load, l0, work) * (1 + 1e-6))
        d = displacement_batch(11e3, 0.35, [0.0, 0.1, 0.4])
        assert d[0] == 0.0          # zero load: the root is exactly 0
        assert np.all(np.isnan(d[1:]))

    def test_batch_equals_per_row_calls(self):
        # bitwise: results do not depend on the shape of the batch
        rng = np.random.default_rng(5)
        youngs = np.concatenate([np.geomspace(1e-3, 1e12, 12),
                                 rng.uniform(6e3, 16e3, size=20)])
        poisson = np.linspace(0.0, 0.49, 7)
        forces = np.concatenate([[0.0], rng.uniform(0.0, 0.4, size=37),
                                 np.geomspace(1e-6, 100.0, 9)])
        batch = displacement_batch(youngs[:, None, None],
                                   poisson[None, :, None], forces)
        rows = np.stack([displacement_batch(e, poisson[:, None], forces)
                         for e in youngs])
        assert np.array_equal(batch, rows)
        single = [displacement_batch(youngs[3], poisson[2], f)
                  for f in forces]
        assert np.array_equal(batch[3, 2], single)


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


def broadcast_displacement(youngs, poisson, force) -> np.ndarray:
    """Oracle: the residual-checked root with every factor formed at the
    full broadcast shape, as ``displacement_batch`` once formed it."""
    load = mech_load(youngs, poisson, force)
    d = _cardano_displacement(load, L0)
    residual = 2.0 * L0**2 * d + 3.0 * L0 * d * d + d**3 - load
    out = np.where(np.abs(residual) <= 1e-20 + 1e-14 * np.abs(load), d,
                   np.nan)
    return out if out.ndim else np.float64(out)


def broadcast_current(poisson, displacement, voltage=10.0,
                      resistivity=1.0) -> np.ndarray:
    """Oracle: the current with every factor formed at the full broadcast
    shape, as ``current_batch`` once formed it."""
    poisson, displacement = np.broadcast_arrays(
        np.asarray(poisson, dtype=float),
        np.asarray(displacement, dtype=float))
    radicand = L0**2 - poisson / (1.0 - poisson) * (
        2.0 * L0 * displacement + displacement**2)
    ok = radicand >= 0
    current = np.where(
        ok,
        voltage * L0 * np.sqrt(np.where(ok, radicand, 0.0))
        / (resistivity * (L0 + displacement)),
        np.nan)
    return current if current.ndim else np.float64(current)


def assert_same_bits(actual, expected):
    assert type(actual) is type(expected)
    assert np.shape(actual) == np.shape(expected)
    assert np.array_equal(np.asarray(actual).view(np.int64),
                          np.asarray(expected).view(np.int64))


class TestOwnShapeFactors:
    """Forming each factor at its own shape changes no bit, NaN included."""

    SHAPES = [((), (), ()), ((6, 1), (6, 1), (1, 9)), ((8,), (8,), (8,)),
              ((3, 1, 1), (1, 4, 1), (5,)), ((), (4, 1), (3,)),
              ((2, 3), (), (1,))]

    @staticmethod
    def draw(rng, shape, low, high, signed=False):
        """Log-uniform magnitudes with NaN, +-inf and zero sprinkled in."""
        values = 10.0 ** rng.uniform(low, high, shape)
        if signed:
            values = values * rng.choice([-1.0, 1.0], shape)
        special = rng.random(shape)
        values = np.where(special < 0.04, np.nan, values)
        values = np.where((special >= 0.04) & (special < 0.07), np.inf,
                          values)
        values = np.where((special >= 0.07) & (special < 0.1), -np.inf,
                          values)
        return np.where((special >= 0.1) & (special < 0.14), 0.0, values)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        for k in range(300):
            shape_e, shape_nu, shape_f = self.SHAPES[k % len(self.SHAPES)]
            youngs = self.draw(rng, shape_e, -3, 12, signed=k % 7 == 0)
            # Poisson ratios inside and outside [0, 0.5)
            poisson = np.where(rng.random(shape_nu) < 0.05, np.nan,
                               rng.uniform(-1.5, 1.5, shape_nu))
            force = self.draw(rng, shape_f, -8, 3, signed=True)
            yield youngs, poisson, force

    def test_displacement_matches_broadcast_oracle(self):
        seen = {"s < -1": 0, "zero force": 0, "nan": 0, "0-d": 0}
        with np.errstate(all="ignore"):
            for youngs, poisson, force in self.inputs(21):
                expected = broadcast_displacement(youngs, poisson, force)
                assert_same_bits(displacement_batch(youngs, poisson, force),
                                 expected)
                seen["s < -1"] += int(np.sum(
                    cardano_s(youngs, poisson, force) < -1))
                seen["zero force"] += int(np.sum(force == 0.0))
                seen["nan"] += int(np.sum(np.isnan(expected)))
                seen["0-d"] += np.ndim(expected) == 0
        assert all(seen.values()), seen

    def test_current_matches_broadcast_oracle(self):
        rng = np.random.default_rng(22)
        seen = {"negative radicand": 0, "nan": 0, "0-d": 0}
        with np.errstate(all="ignore"):
            for youngs, poisson, force in self.inputs(23):
                d = broadcast_displacement(youngs, poisson, force)
                # roots, and displacements far past the admissible range
                d = np.where(rng.random(np.shape(d)) < 0.5, d,
                             self.draw(rng, np.shape(d), -6, 0, signed=True))
                expected = broadcast_current(poisson, d)
                assert_same_bits(current_batch(poisson, d), expected)
                radicand = L0**2 - poisson / (1.0 - poisson) * (
                    2.0 * L0 * d + d**2)
                seen["negative radicand"] += int(np.sum(radicand < 0))
                seen["nan"] += int(np.sum(np.isnan(expected)))
                seen["0-d"] += np.ndim(expected) == 0
        assert all(seen.values()), seen

    def test_workspace_changes_no_bit(self):
        # one workspace for every batch, as a reduction thread keeps it:
        # its slots grow, hold the last batch's values and serve smaller
        # batches (a short last block) as leading views
        work = _Workspace()
        seen = {"s < -1": 0, "zero force": 0, "nan": 0, "0-d": 0,
                "smaller batch": 0}
        largest = 0
        with np.errstate(all="ignore"):
            for youngs, poisson, force in self.inputs(25):
                fresh = displacement_batch(youngs, poisson, force)
                d = displacement_batch(youngs, poisson, force, work=work)
                assert_same_bits(d, fresh)
                # the model's chain: the current reads the displacement
                # from the same workspace
                assert_same_bits(current_batch(poisson, d, work=work),
                                 current_batch(poisson, fresh))
                seen["s < -1"] += int(np.sum(
                    cardano_s(youngs, poisson, force) < -1))
                seen["zero force"] += int(np.sum(force == 0.0))
                seen["nan"] += int(np.sum(np.isnan(fresh)))
                seen["0-d"] += np.ndim(fresh) == 0
                seen["smaller batch"] += 0 < np.size(fresh) < largest
                largest = max(largest, np.size(fresh))
        assert all(seen.values()), seen

    def test_model_outputs_same_bits_with_a_workspace(self):
        model = ElectromechModel()
        rng = np.random.default_rng(26)
        forces = np.linspace(0.0, 0.4, 33)
        work = _Workspace()
        for rows in (40, 40, 17, 1):
            x = np.stack([10.0 ** rng.uniform(2.0, 5.0, rows),
                          rng.uniform(0.0, 0.4999, rows)], axis=-1)
            for field_id in (1, 2, 1):
                assert_same_bits(
                    model.outputs(x, field_id, forces, work=work),
                    model.outputs(x, field_id, forces))
        truth = np.array([11e3, 0.35])
        for field_id in (1, 2):
            assert_same_bits(model.outputs(truth, field_id, forces,
                                           work=work),
                             model.outputs(truth, field_id, forces))

    def test_result_without_a_workspace_belongs_to_the_caller(self):
        forces = np.linspace(0.0, 0.4, 9)
        first = displacement_batch(11e3, 0.35, forces)
        kept = first.copy()
        second = displacement_batch(12e3, 0.3, forces)
        current = current_batch(0.35, first)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(current, first)
        assert_same_bits(first, kept)
        assert type(displacement_batch(11e3, 0.35, 0.4)) is np.float64
        assert type(current_batch(0.35, DSTAR)) is np.float64

    def test_rig_constants_match_broadcast_oracle(self):
        rng = np.random.default_rng(24)
        poisson = rng.uniform(0.0, 0.5, (50, 1))
        d = displacement_batch(rng.uniform(6e3, 16e3, (50, 1)), poisson,
                               np.linspace(0.0, 0.4, 7))
        assert_same_bits(
            current_batch(poisson, d, voltage=3.7, resistivity=0.3),
            broadcast_current(poisson, d, voltage=3.7, resistivity=0.3))


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"youngs_modulus": 0.0, "poisson_ratio": 0.3},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.5},
        {"youngs_modulus": 1e4, "poisson_ratio": -0.1},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "side_length": 0.0},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "resistivity": 0.0},
        {"youngs_modulus": np.inf, "poisson_ratio": 0.3},
        {"youngs_modulus": 1e4, "poisson_ratio": np.nan},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "side_length": np.inf},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "resistivity": np.inf},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "voltage": 0.0},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "voltage": np.nan},
        {"youngs_modulus": 1e4, "poisson_ratio": 0.3, "voltage": -np.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ElectromechParams(**kwargs)

    def test_negative_voltage_accepted(self):
        params = ElectromechParams(youngs_modulus=1e4, poisson_ratio=0.3,
                                   voltage=-10.0)
        assert params.rest_current == pytest.approx(-0.1, rel=1e-15)

    def test_rest_current(self, truth_params):
        assert truth_params.rest_current == pytest.approx(0.1, rel=1e-15)
