"""One-way coupled electromechanical tensile-test model.

A cube of side length ``l0`` is stretched by a force ``F`` along its axis
while a voltage ``U`` drives a current through it.  The displacement ``d``
of the loaded face solves a cubic equilibrium equation; the current ``I``
follows from the deformed resistance, which shrinks with the lateral
contraction controlled by the Poisson ratio.  Electricity does not act back
on the mechanics, so the two fields are one-way coupled.

:func:`displacement_batch` and :func:`current_batch` evaluate a posterior
grid's nodes against the observed forces.  Each factor that depends on the
node alone or on the force alone is formed at its input's shape; only the
terms that depend on both span the node x force shape, and they are
updated in place.  The Cardano root takes its trigonometric and its
hyperbolic branch as masked ufuncs, each on its own entries, and the
residual check evaluates the cubic in Horner form.

The kernels write every node x force array into a workspace ``work``: an
object whose ``floats(slot, shape)`` and ``bools(slot, shape)`` return
scratch arrays of ``shape``, the same memory for the same slot.  They use
float slots 0-2 and bool slots 0-1, and each returns its result in float
slot 0, so slots 1 and 2 are free again once it has returned.  A caller
that evaluates many batches of one shape, such as the misfit reduction,
passes one workspace to every call; a kernel called without one builds
its own, so its result belongs to the caller.

All quantities are strict SI (m, N, Pa, V, A, Ohm m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probabilistic import _Workspace

DEFAULT_SIDE_LENGTH = 0.01   # m
DEFAULT_VOLTAGE = 10.0       # V
DEFAULT_RESISTIVITY = 1.0    # Ohm m


class AdmissibilityError(ValueError):
    """State outside the physically admissible range (vanishing cross-section)."""


class DomainError(ValueError):
    """A parameter or load outside the model's domain; ``name`` names it."""

    def __init__(self, name: str, requirement: str, value):
        super().__init__(f"{name} {requirement}, got {value}")
        self.name = name


@dataclass(frozen=True)
class ElectromechParams:
    """Uncertain material parameters plus the fixed rig constants."""

    youngs_modulus: float                       # Pa
    poisson_ratio: float                        # dimensionless
    side_length: float = DEFAULT_SIDE_LENGTH    # m
    voltage: float = DEFAULT_VOLTAGE            # V
    resistivity: float = DEFAULT_RESISTIVITY    # Ohm m

    def __post_init__(self):
        for name in ("youngs_modulus", "side_length", "resistivity"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise DomainError(name, "must be finite and > 0", value)
        if not 0 <= self.poisson_ratio < 0.5:
            raise DomainError(
                "poisson_ratio", "must lie in [0, 0.5)", self.poisson_ratio)
        if not 0 < abs(self.voltage) < np.inf:
            raise DomainError("voltage", "must be finite and nonzero",
                              self.voltage)

    @property
    def rest_current(self) -> float:
        """Current through the undeformed cube, U*l0/rho."""
        return self.voltage * self.side_length / self.resistivity


def cross_section_radicand(d, params: ElectromechParams):
    """l0^2 - nu/(1-nu) * (2*l0*d + d^2); must stay >= 0 for a real cross-section."""
    l0, nu = params.side_length, params.poisson_ratio
    return l0**2 - nu / (1.0 - nu) * (2.0 * l0 * d + d * d)


def _check_displacement(d, params: ElectromechParams):
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("displacement must be finite")
    if np.any(d <= -params.side_length):
        raise AdmissibilityError(
            f"displacement {d} leaves the cube with non-positive length")
    return d


def residual_mech(d, params: ElectromechParams, force):
    """Mechanical equilibrium residual.

    f1(d) = 2*l0^2*d + 3*l0*d^2 + d^3 - 2*F*l0/E * (1 - nu^2)
    """
    d = _check_displacement(d, params)
    force = np.asarray(force, dtype=float)
    if not np.all(np.isfinite(force)):
        raise ValueError("force must be finite")
    l0 = params.side_length
    load = (2.0 * force * l0 / params.youngs_modulus
            * (1.0 - params.poisson_ratio**2))
    return 2.0 * l0**2 * d + 3.0 * l0 * d * d + d**3 - load


def residual_elec(d, current, params: ElectromechParams):
    """Electrical residual from Ohm's law on the deformed cube.

    f2(d, I) = rho*(l0 + d)*I - U*l0*sqrt(l0^2 - nu/(1-nu)*(2*l0*d + d^2))
    """
    d = _check_displacement(d, params)
    radicand = cross_section_radicand(d, params)
    if np.any(radicand < 0):
        raise AdmissibilityError(
            "lateral contraction exceeds the cube width (negative radicand); "
            "the electrical model is undefined here")
    l0 = params.side_length
    return (params.resistivity * (l0 + d) * np.asarray(current, dtype=float)
            - params.voltage * l0 * np.sqrt(radicand))


def jacobian(state, params: ElectromechParams, force) -> np.ndarray:
    """Analytic 2x2 system matrix at the state ``[d, I]``.

    [[2*l0^2 + 6*l0*d + 3*d^2,  0],
     [rho*I + U*l0*(nu/(1-nu))*(l0+d)/sqrt(radicand),  rho*(l0 + d)]]

    The upper-right entry is exactly zero: the mechanics do not depend on
    the current.
    """
    d, current = state
    d = float(_check_displacement(d, params))
    radicand = cross_section_radicand(d, params)
    if radicand <= 0:
        raise AdmissibilityError(
            f"state d={d} is at or beyond the admissibility limit")
    l0, nu = params.side_length, params.poisson_ratio
    df1_dd = 2.0 * l0**2 + 6.0 * l0 * d + 3.0 * d * d
    df2_dd = (params.resistivity * current
              + params.voltage * l0 * (nu / (1.0 - nu)) * (l0 + d)
              / np.sqrt(radicand))
    df2_di = params.resistivity * (l0 + d)
    return np.array([[df1_dd, 0.0], [df2_dd, df2_di]])


def coupled_system(params: ElectromechParams, force: float) -> CoupledSystem:
    """The model as a generic two-field coupled system with state [d, I]."""
    # imported here: only the tests run the reference solver
    from .coupled import CoupledSystem

    def _residual(state):
        d, current = state
        return (np.array([residual_mech(d, params, force)]),
                np.array([residual_elec(d, current, params)]))

    def _jacobian(state):
        mat = jacobian(state, params, force)
        return ((mat[0:1, 0:1], mat[0:1, 1:2]),
                (mat[1:2, 0:1], mat[1:2, 1:2]))

    return CoupledSystem(field_dims=(1, 1), residual=_residual,
                         jacobian=_jacobian)


def _cardano_displacement(load: np.ndarray, l0: float,
                          work=None) -> np.ndarray:
    """Physical root ``d`` of ``2*l0^2*d + 3*l0*d^2 + d^3 = load``, in
    closed form, in float slot 0 of ``work``; ``load`` must not lie in
    that workspace's float slot 0 or 2.

    With ``u = l0 + d`` the cubic is ``u^3 - l0^2*u = load``; its physical
    root is the trigonometric (``s <= 1``) or hyperbolic (``s > 1``)
    Cardano branch, ``s = (3*sqrt(3)/2) * load / l0^3`` (Numerical Recipes
    §5.6).  ``d = load / (u*(u + l0))`` avoids the cancellation in
    ``u - l0`` and is exactly 0 at zero load.  NaN where ``s`` is NaN or
    below -1 (a compressive load outside the domain).
    """
    work = _Workspace() if work is None else work
    shape = np.shape(load)
    # in place: on a posterior grid every temporary is as large as the
    # node x force product; ``out=`` also keeps a 0-d input an array, where
    # a plain ufunc call would return a scalar
    u = np.multiply(load, 1.5 * np.sqrt(3.0) / l0**3,
                    out=work.floats(0, shape))
    hyperbolic = np.greater(u, 1.0, out=work.bools(0, shape))
    trigonometric = np.logical_not(hyperbolic, out=work.bools(1, shape))
    # each branch runs on its own entries only: a masked ufunc skips the
    # others where gathering and scattering them would cost what it saves
    with np.errstate(invalid="ignore"):
        np.arccosh(u, out=u, where=hyperbolic)
        np.arccos(u, out=u, where=trigonometric)
        u /= 3.0
        np.cosh(u, out=u, where=hyperbolic)
        np.cos(u, out=u, where=trigonometric)
        u *= 2.0 * l0 / np.sqrt(3.0)
        u *= np.add(u, l0, out=work.floats(2, shape))
        return np.divide(load, u, out=u)


def displacement_batch(youngs_modulus, poisson_ratio, force, *,
                       side_length: float = DEFAULT_SIDE_LENGTH,
                       work=None) -> np.ndarray:
    """Solve the mechanical cubic over broadcast inputs.

    Each entry is the closed-form root of :func:`_cardano_displacement`,
    verified by its residual: an entry with ``|residual| > 1e-20 +
    1e-14*|load|`` comes back as NaN.  The tests check this path against
    the monolithic Newton solve of :func:`coupled_system`.

    ``2*F*l0`` and ``1 - nu^2`` are formed at their inputs' shapes and the
    residual check runs in place, with the operations of a fully broadcast
    evaluation in the same order, so the results are the same bits.  The
    result is float slot 0 of ``work``.
    """
    youngs_modulus = np.asarray(youngs_modulus, dtype=float)
    poisson_ratio = np.asarray(poisson_ratio, dtype=float)
    force = np.asarray(force, dtype=float)
    l0 = side_length
    shape = np.broadcast_shapes(youngs_modulus.shape, poisson_ratio.shape,
                                force.shape)
    work = _Workspace() if work is None else work
    load = np.divide(2.0 * force * l0, youngs_modulus,
                     out=work.floats(1, shape))
    load *= 1.0 - poisson_ratio**2
    d = _cardano_displacement(load, l0, work)
    # residual ((d + 3*l0)*d + 2*l0^2)*d - load, the cubic in Horner form,
    # against an absolute floor plus a relative term so the check is
    # scale-aware in the load
    residual = np.add(d, 3.0 * l0, out=work.floats(2, shape))
    residual *= d
    residual += 2.0 * l0**2
    residual *= d
    residual -= load
    np.abs(residual, out=residual)
    tolerance = np.abs(load, out=load)
    tolerance *= 1e-14
    tolerance += 1e-20
    failed = np.less_equal(residual, tolerance, out=work.bools(0, shape))
    np.copyto(d, np.nan, where=np.logical_not(failed, out=failed))
    return d if d.ndim else np.float64(d)


def current_batch(poisson_ratio, displacement, *,
                  side_length: float = DEFAULT_SIDE_LENGTH,
                  voltage: float = DEFAULT_VOLTAGE,
                  resistivity: float = DEFAULT_RESISTIVITY,
                  work=None) -> np.ndarray:
    """Vectorized current from displacement; NaN where inadmissible.

    ``nu/(1-nu)`` is formed at the Poisson ratio's shape and the rest in
    place at the broadcast shape, with the operations of a fully
    broadcast evaluation, so the results are the same bits.  The result
    is float slot 0 of ``work``.  The displacement may lie in that slot,
    as :func:`displacement_batch` leaves it, since it is read before the
    result is written; it must not lie in float slot 1 or 2.
    """
    work = _Workspace() if work is None else work
    poisson_ratio = np.asarray(poisson_ratio, dtype=float)
    displacement = np.asarray(displacement, dtype=float)
    l0 = side_length
    shape = np.broadcast_shapes(poisson_ratio.shape, displacement.shape)
    # radicand l0^2 - nu/(1-nu) * (2*l0*d + d^2)
    radicand = np.multiply(displacement, 2.0 * l0, out=work.floats(1, shape))
    term = np.square(displacement, out=work.floats(2, shape))
    radicand += term
    radicand *= poisson_ratio / (1.0 - poisson_ratio)
    np.subtract(l0**2, radicand, out=radicand)
    bad = np.greater_equal(radicand, 0, out=work.bools(0, shape))
    np.logical_not(bad, out=bad)
    # U*l0*sqrt(radicand) / (rho*(l0 + d)), with 0 for the radicand
    # where it is negative or NaN; those entries come back NaN
    np.copyto(radicand, 0.0, where=bad)
    np.sqrt(radicand, out=radicand)
    radicand *= voltage * l0
    np.add(displacement, l0, out=term)
    term *= resistivity
    # the displacement is read for the last time above
    current = np.divide(radicand, term, out=work.floats(0, shape))
    np.copyto(current, np.nan, where=bad)
    return current if current.ndim else np.float64(current)
