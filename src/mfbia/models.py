"""Forward-model registry for inference and sweeps.

A forward model maps uncertain parameters to per-field outputs at observed
coordinates.  ``outputs`` is vectorized over a leading batch of parameter
vectors so that posterior grids evaluate in single array passes; failed
evaluations surface as NaN rather than raising.
"""

from __future__ import annotations

import numpy as np

from . import electromech


class ElectromechModel:
    """Tensile-test cube with concurrent current measurement.

    Parameters are (Young's modulus in Pa, Poisson ratio); field 1 observes
    the displacement, field 2 the electric current, both as functions of the
    applied force.
    """

    name = "electromech"
    param_names = ("youngs_modulus", "poisson_ratio")
    field_ids = (1, 2)

    def __init__(self, side_length: float = electromech.DEFAULT_SIDE_LENGTH,
                 voltage: float = electromech.DEFAULT_VOLTAGE,
                 resistivity: float = electromech.DEFAULT_RESISTIVITY):
        self.side_length = float(side_length)
        self.voltage = float(voltage)
        self.resistivity = float(resistivity)

    @property
    def constants(self) -> dict[str, float]:
        return {"side_length": self.side_length, "voltage": self.voltage,
                "resistivity": self.resistivity}

    def check_params(self, x) -> None:
        """Raise :class:`~mfbia.electromech.DomainError` if ``x`` or a
        constant lies outside the bounds that ``ElectromechParams`` enforces."""
        electromech.ElectromechParams(
            youngs_modulus=float(x[0]), poisson_ratio=float(x[1]),
            side_length=self.side_length, voltage=self.voltage,
            resistivity=self.resistivity)

    def check_coords(self, coords) -> None:
        """Raise DomainError if a force in ``coords`` is compressive or
        not finite."""
        coords = np.asarray(coords, dtype=float)
        bad = coords[~((coords >= 0) & np.isfinite(coords))]
        if bad.size:
            raise electromech.DomainError("force", "must be >= 0 and finite",
                                          bad[0])

    def outputs(self, x, field_id: int, coords, work=None) -> np.ndarray:
        """Field outputs at each coordinate, batched over parameter vectors.

        ``x`` has shape (..., 2); the result has shape (..., len(coords)).
        ``work`` is the forward kernels' workspace; see
        :mod:`mfbia.electromech`.
        """
        x = np.asarray(x, dtype=float)
        coords = np.asarray(coords, dtype=float)
        youngs = x[..., 0][..., None]
        poisson = x[..., 1][..., None]
        force = coords.reshape((1,) * (x.ndim - 1) + (-1,))
        displacement = electromech.displacement_batch(
            youngs, poisson, force, side_length=self.side_length, work=work)
        if field_id == 1:
            return displacement
        if field_id == 2:
            return electromech.current_batch(
                poisson, displacement, side_length=self.side_length,
                voltage=self.voltage, resistivity=self.resistivity,
                work=work)
        raise ValueError(f"model {self.name!r} has fields {self.field_ids}, "
                         f"got {field_id}")


class ToyFullModel:
    """Fully coupled linear two-field model for exercising the solver path.

    With parameters x = (x1, x2), coupling factors (k12, k21) and a scalar
    load coordinate c, the fields solve

        y1 + k12*y2 = x1*c
        k21*y1 + y2 = x2*c

    Every Jacobian block is nonzero, so the system is fully coupled; the
    closed-form solution keeps grid evaluation cheap.
    """

    name = "toy-full"
    param_names = ("x1", "x2")
    field_ids = (1, 2)

    def __init__(self, coupling: float | None = None,
                 coupling12: float = 0.5, coupling21: float = 0.25):
        if coupling is not None:
            coupling12 = coupling21 = float(coupling)
        self.coupling12 = float(coupling12)
        self.coupling21 = float(coupling21)
        if not abs(self.coupling12 * self.coupling21) < 1:
            raise ValueError(
                f"coupling product must satisfy |k12*k21| < 1, "
                f"got {self.coupling12} * {self.coupling21}")

    @property
    def constants(self) -> dict[str, float]:
        return {"coupling12": self.coupling12, "coupling21": self.coupling21}

    def check_params(self, x) -> None:
        """Every parameter vector lies in the domain."""

    def check_coords(self, coords) -> None:
        """Raise DomainError if a coordinate in ``coords`` is not finite."""
        coords = np.asarray(coords, dtype=float)
        bad = coords[~np.isfinite(coords)]
        if bad.size:
            raise electromech.DomainError("coordinate", "must be finite",
                                          bad[0])

    def coupled_system(self, x, coord: float) -> CoupledSystem:
        # imported here: only the tests run the reference solver
        from .coupled import CoupledSystem

        x = np.asarray(x, dtype=float)
        k12, k21 = self.coupling12, self.coupling21
        load = x * float(coord)

        def _residual(state):
            y1, y2 = state
            return (np.array([y1 + k12 * y2 - load[0]]),
                    np.array([k21 * y1 + y2 - load[1]]))

        def _jacobian(state):
            return ((np.array([[1.0]]), np.array([[k12]])),
                    (np.array([[k21]]), np.array([[1.0]])))

        return CoupledSystem(field_dims=(1, 1), residual=_residual,
                             jacobian=_jacobian)

    def outputs(self, x, field_id: int, coords, work=None) -> np.ndarray:
        """Field outputs at each coordinate; ``work`` is not used."""
        x = np.asarray(x, dtype=float)
        coords = np.asarray(coords, dtype=float)
        c = coords.reshape((1,) * (x.ndim - 1) + (-1,))
        x1 = x[..., 0][..., None]
        x2 = x[..., 1][..., None]
        det = 1.0 - self.coupling12 * self.coupling21
        if field_id == 1:
            return (x1 - self.coupling12 * x2) * c / det
        if field_id == 2:
            return (x2 - self.coupling21 * x1) * c / det
        raise ValueError(f"model {self.name!r} has fields {self.field_ids}, "
                         f"got {field_id}")


_REGISTRY = {
    ElectromechModel.name: ElectromechModel,
    ToyFullModel.name: ToyFullModel,
}


def registered_models() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_model(name: str, constants: dict | None = None):
    """Instantiate a registered model from its name and constants mapping."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; "
                         f"registered: {', '.join(registered_models())}") from None
    return cls(**(constants or {}))
