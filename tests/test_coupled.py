from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfbia.coupled import (
    CoupledSystem,
    NewtonSettings,
    NonConvergenceError,
    SingularJacobianError,
    StructureError,
    assemble_block_jacobian,
    newton_solve,
)
from mfbia.electromech import coupled_system


def toy_full_system() -> CoupledSystem:
    """f1 = y1 + 0.5*y2 - 1, f2 = 0.25*y1 + y2 - 1; constant Jacobian."""
    return CoupledSystem(
        field_dims=(1, 1),
        residual=lambda y: ([y[0] + 0.5 * y[1] - 1.0],
                            [0.25 * y[0] + y[1] - 1.0]),
        jacobian=lambda y: (([[1.0]], [[0.5]]), ([[0.25]], [[1.0]])))


def uncoupled_system() -> CoupledSystem:
    """f1 = y1 - 3, f2 = y2^3 - 8; closed-form roots (3, 2)."""
    return CoupledSystem(
        field_dims=(1, 1),
        residual=lambda y: ([y[0] - 3.0], [y[1] ** 3 - 8.0]),
        jacobian=lambda y: (([[1.0]], [[0.0]]), ([[0.0]], [[3.0 * y[1] ** 2]])))


class TestAssembly:
    def test_toy_full_constant_matrix(self):
        system = toy_full_system()
        for state in ([0.0, 0.0], [1.5, -2.0], [100.0, 3.0]):
            matrix = assemble_block_jacobian(system, np.array(state))
            np.testing.assert_array_equal(matrix, [[1.0, 0.5], [0.25, 1.0]])

    def test_uncoupled_offdiagonals_exactly_zero(self):
        system = uncoupled_system()
        matrix = assemble_block_jacobian(system, np.array([4.0, -1.0]))
        assert matrix[0, 1] == 0.0
        assert matrix[1, 0] == 0.0

    def test_offdiagonal_blocks_returned_unchanged(self, truth_params):
        # the matrix is the callback's Jacobian, also for a system that a
        # one-way model built: nothing outside the callback zeroes a block
        system = replace(coupled_system(truth_params, force=0.25),
                         jacobian=lambda y: (([[1.0]], [[9.0]]),
                                             ([[-7.0]], [[1.0]])))
        matrix = assemble_block_jacobian(system, np.zeros(2))
        np.testing.assert_array_equal(matrix, [[1.0, 9.0], [-7.0, 1.0]])

    def test_electromech_upper_right_zero(self, truth_params):
        system = coupled_system(truth_params, force=0.25)
        for d in np.linspace(0.0, 2e-3, 5):
            matrix = assemble_block_jacobian(system, np.array([d, 0.09]))
            assert matrix[0, 1] == 0.0

    def test_residual_dimension_mismatch(self):
        system = CoupledSystem(
            field_dims=(2, 1),
            residual=lambda y: ([y[0]], [y[2]]),  # block 0 should have dim 2
            jacobian=lambda y: ((np.eye(2), np.zeros((2, 1))),
                                (np.zeros((1, 2)), np.eye(1))))
        with pytest.raises(StructureError):
            system.stacked_residual(np.zeros(3))

    def test_jacobian_block_shape_mismatch(self):
        system = CoupledSystem(
            field_dims=(2, 1),
            residual=lambda y: (y[:2], y[2:]),
            jacobian=lambda y: ((np.eye(2), np.zeros((1, 1))),
                                (np.zeros((1, 2)), np.eye(1))))
        with pytest.raises(StructureError):
            assemble_block_jacobian(system, np.zeros(3))

    def test_field_dims_must_be_positive(self):
        with pytest.raises(StructureError):
            CoupledSystem(field_dims=(0,), residual=lambda y: (y,),
                          jacobian=lambda y: ((np.eye(0),),))


class TestNewtonSolve:
    def test_linear_system_converges_in_one_iteration(self):
        result = newton_solve(toy_full_system(),
                              NewtonSettings(initial_state=np.zeros(2)))
        np.testing.assert_allclose(result.state, [4.0 / 7.0, 6.0 / 7.0],
                                   rtol=0, atol=1e-14)
        assert result.iterations == 1

    def test_uncoupled_closed_form_roots(self):
        result = newton_solve(uncoupled_system(),
                              NewtonSettings(initial_state=np.array([0.0, 1.0])))
        np.testing.assert_allclose(result.state, [3.0, 2.0], rtol=1e-12)

    def test_zero_iterations_at_satisfied_initial_state(self):
        result = newton_solve(toy_full_system(),
                              NewtonSettings(
                                  initial_state=np.array([4.0 / 7.0, 6.0 / 7.0]),
                                  residual_tolerance=1e-10))
        assert result.iterations == 0
        np.testing.assert_array_equal(result.state, [4.0 / 7.0, 6.0 / 7.0])

    def test_max_iterations_exhausted_reports_norm(self):
        # y^2 + 1 has no real root
        system = CoupledSystem(field_dims=(1,),
                               residual=lambda y: ([y[0] ** 2 + 1.0],),
                               jacobian=lambda y: (([[2.0 * y[0]]],),))
        with pytest.raises(NonConvergenceError) as excinfo:
            newton_solve(system, NewtonSettings(initial_state=np.array([0.3]),
                                                max_iterations=5))
        assert excinfo.value.residual_norm >= 1.0
        assert excinfo.value.iteration == 5

    def test_singular_jacobian_carries_iterate_context(self):
        system = CoupledSystem(field_dims=(1,),
                               residual=lambda y: ([y[0] ** 2 - 1.0],),
                               jacobian=lambda y: (([[0.0]],),))
        with pytest.raises(SingularJacobianError) as excinfo:
            newton_solve(system, NewtonSettings(initial_state=np.array([5.0])))
        assert excinfo.value.state is not None

    def test_nonfinite_jacobian_rejected(self):
        system = CoupledSystem(field_dims=(1,),
                               residual=lambda y: ([y[0] - 1.0],),
                               jacobian=lambda y: (([[np.nan]],),))
        with pytest.raises(SingularJacobianError):
            newton_solve(system, NewtonSettings(initial_state=np.array([0.0])))

    def test_step_halving_recovers_from_domain_error(self):
        # residual raises beyond y = 2, and a deliberately flat Jacobian
        # makes the first full step overshoot into that region
        def guarded(y):
            if y[0] > 2.0:
                raise ValueError("outside domain")
            return ([y[0] - 1.5],)

        system = CoupledSystem(field_dims=(1,), residual=guarded,
                               jacobian=lambda y: (([[0.5]],),))
        result = newton_solve(system, NewtonSettings(initial_state=np.array([0.0])))
        np.testing.assert_allclose(result.state, [1.5], rtol=1e-12)

    def test_step_halving_exhaustion_is_nonconvergence(self):
        def always_bad(y):
            if y[0] != 0.0:
                raise ValueError("nowhere to go")
            return ([1.0],)

        system = CoupledSystem(field_dims=(1,), residual=always_bad,
                               jacobian=lambda y: (([[1.0]],),))
        with pytest.raises(NonConvergenceError):
            newton_solve(system, NewtonSettings(initial_state=np.array([0.0]),
                                                max_step_halvings=5))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(initial_state=np.zeros(1), residual_tolerance=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(initial_state=np.zeros(1), max_iterations=0)

    def test_initial_state_shape_checked(self):
        with pytest.raises(StructureError):
            newton_solve(toy_full_system(),
                         NewtonSettings(initial_state=np.zeros(3)))

    @given(st.integers(2, 4), st.data())
    def test_random_linear_systems_match_direct_solve(self, n, data):
        entries = st.floats(-2.0, 2.0, allow_nan=False)
        flat = data.draw(st.lists(entries, min_size=n * n + n,
                                  max_size=n * n + n))
        matrix = np.array(flat[:n * n]).reshape(n, n) + (n + 2.5) * np.eye(n)
        rhs = np.array(flat[n * n:])
        system = CoupledSystem(
            field_dims=(n,),
            residual=lambda y: (matrix @ y - rhs,),
            jacobian=lambda y: ((matrix,),))
        result = newton_solve(system, NewtonSettings(initial_state=np.zeros(n)))
        expected = np.linalg.solve(matrix, rhs)
        np.testing.assert_allclose(result.state, expected,
                                   rtol=1e-10, atol=1e-12)
        # zero right-hand sides are solved by the initial state already
        assert result.iterations <= 1


class TestIterationInvariants:
    def _recording_system(self, base: CoupledSystem):
        log = []

        def jac(state):
            log.append(np.array(state, dtype=float))
            return base.jacobian(state)

        recording = CoupledSystem(field_dims=base.field_dims,
                                  residual=base.residual, jacobian=jac)
        return recording, log

    def test_steps_solve_the_linearized_system(self, truth_params):
        base = coupled_system(truth_params, force=0.35)
        system, visited = self._recording_system(base)
        result = newton_solve(system, NewtonSettings(
            initial_state=np.array([0.0, truth_params.rest_current]),
            residual_tolerance=1e-15))
        iterates = visited + [result.state]
        for current, nxt in zip(iterates[:-1], iterates[1:]):
            matrix = assemble_block_jacobian(base, current)
            residual = base.stacked_residual(current)
            lhs = matrix @ (nxt - current)
            np.testing.assert_allclose(lhs, -residual, rtol=1e-9, atol=1e-18)

    def test_quadratic_local_convergence(self, truth_params):
        result = newton_solve(
            coupled_system(truth_params, force=0.4),
            NewtonSettings(initial_state=np.array([0.0, 0.1]),
                           residual_tolerance=1e-15))
        # skip the initial pair: the starting residual is small in the
        # mechanical units but the state is still far from the root, so the
        # quadratic regime only starts after the first correction
        norms = result.residual_norms[1:]
        checked = 0
        for r_now, r_next in zip(norms[:-1], norms[1:]):
            if r_now <= 1e-3:
                assert r_next <= 1e4 * r_now**2 + 1e-20
                checked += 1
        assert checked >= 2

    def test_one_way_sequential_matches_monolithic(self, truth_params):
        from mfbia.electromech import current_batch, displacement_batch

        # the grid path solves the mechanics first, then the linear
        # electrical field; a residual of size tol maps to a displacement
        # error of roughly tol / (2*l0^2), the smallest residual slope
        tol = 1e-15
        sensitivity = 1.0 / (2.0 * truth_params.side_length**2)
        for force in (0.1, 0.25, 0.4):
            d = displacement_batch(truth_params.youngs_modulus,
                                   truth_params.poisson_ratio, force)
            seq = [d, current_batch(truth_params.poisson_ratio, d)]
            mono = newton_solve(
                coupled_system(truth_params, force),
                NewtonSettings(initial_state=np.array(
                    [0.0, truth_params.rest_current]),
                    residual_tolerance=tol)).state
            gap = np.linalg.norm(np.subtract(seq, mono))
            assert gap <= 10 * tol * sensitivity
            assert gap <= 1e-10


class TestFiniteDifferenceJacobians:
    def test_electromech_blocks_match_central_differences(self, truth_params):
        from mfbia.electromech import residual_elec, residual_mech

        rng = np.random.default_rng(7)
        params = truth_params
        for _ in range(25):
            d = rng.uniform(-0.2e-3, 3e-3)
            current = rng.uniform(0.02, 0.2)
            force = rng.uniform(0.0, 0.4)
            system = coupled_system(params, force)
            matrix = assemble_block_jacobian(system, np.array([d, current]))
            h_d = 6e-6 * params.side_length
            h_i = 6e-6 * params.rest_current
            fd11 = (residual_mech(d + h_d, params, force)
                    - residual_mech(d - h_d, params, force)) / (2 * h_d)
            fd21 = (residual_elec(d + h_d, current, params)
                    - residual_elec(d - h_d, current, params)) / (2 * h_d)
            fd22 = (residual_elec(d, current + h_i, params)
                    - residual_elec(d, current - h_i, params)) / (2 * h_i)
            assert matrix[0, 1] == 0.0
            np.testing.assert_allclose(matrix[0, 0], fd11, rtol=1e-6)
            np.testing.assert_allclose(matrix[1, 0], fd21, rtol=1e-6)
            np.testing.assert_allclose(matrix[1, 1], fd22, rtol=1e-6)
