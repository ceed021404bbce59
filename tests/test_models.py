import numpy as np
import pytest

from mfbia.coupled import (
    NewtonSettings,
    assemble_block_jacobian,
    newton_solve,
)
from mfbia.electromech import coupled_system
from mfbia.models import ToyFullModel, build_model, registered_models


class TestRegistry:
    def test_registered_names(self):
        assert registered_models() == ("electromech", "toy-full")

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="registered"):
            build_model("porous-medium")

    def test_constants_forwarded(self):
        model = build_model("electromech", {"voltage": 5.0})
        assert model.voltage == 5.0


class TestElectromechModel:
    def test_outputs_match_scalar_evaluation(self, truth_params):
        model = build_model("electromech")
        x = np.array([truth_params.youngs_modulus,
                      truth_params.poisson_ratio])
        coords = np.linspace(0.0, 0.4, 5)
        d = model.outputs(x, 1, coords)
        i = model.outputs(x, 2, coords)
        for k, force in enumerate(coords):
            state = newton_solve(
                coupled_system(truth_params, force),
                NewtonSettings(initial_state=np.array(
                    [0.0, truth_params.rest_current]),
                    residual_tolerance=1e-15)).state
            np.testing.assert_allclose(d[k], state[0], rtol=1e-9, atol=1e-11)
            np.testing.assert_allclose(i[k], state[1], rtol=1e-9)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            build_model("electromech").outputs(np.array([1e4, 0.3]), 3, [0.1])

    def test_batched_shape(self):
        model = build_model("electromech")
        grid = np.ones((4, 6, 2)) * [1e4, 0.3]
        out = model.outputs(grid, 1, np.linspace(0.0, 0.4, 3))
        assert out.shape == (4, 6, 3)


class TestToyFullModel:
    def test_closed_form_matches_monolithic_newton(self):
        model = ToyFullModel(coupling12=0.5, coupling21=0.25)
        x = np.array([1.2, 0.7])
        for coord in (0.3, 1.0, 2.5):
            system = model.coupled_system(x, coord)
            result = newton_solve(system,
                                  NewtonSettings(initial_state=np.zeros(2)))
            assert result.iterations == 1
            y1 = model.outputs(x, 1, [coord])[0]
            y2 = model.outputs(x, 2, [coord])[0]
            np.testing.assert_allclose(result.state, [y1, y2], rtol=1e-12)

    def test_system_matrix(self):
        model = ToyFullModel(coupling12=0.5, coupling21=0.25)
        system = model.coupled_system(np.array([1.0, 1.0]), 1.0)
        matrix = assemble_block_jacobian(system, np.zeros(2))
        np.testing.assert_array_equal(matrix, [[1.0, 0.5], [0.25, 1.0]])

    def test_single_coupling_shorthand(self):
        model = ToyFullModel(coupling=0.3)
        assert model.coupling12 == model.coupling21 == 0.3

    def test_coupling_product_bound(self):
        with pytest.raises(ValueError):
            ToyFullModel(coupling=1.0)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            ToyFullModel().outputs(np.array([1.0, 1.0]), 5, [0.1])
