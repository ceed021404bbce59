"""Multi-field nonlinear algebraic systems and a monolithic Newton solver.

A coupled system bundles per-field residual callbacks with an analytic block
Jacobian.  How the fields couple (uncoupled, one-way, fully coupled) is a
property of that Jacobian: a field that does not depend on another has an
exactly zero block there.  The solver linearizes all fields simultaneously
and solves the stacked block system for the full correction in every
iteration.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np


class StructureError(ValueError):
    """Callback output does not match the declared field dimensions."""


class SolverError(RuntimeError):
    """Base class for Newton solver failures. Carries iterate context."""

    def __init__(self, message: str, state: np.ndarray | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.state = None if state is None else np.asarray(state, dtype=float)
        self.iteration = iteration


class SingularJacobianError(SolverError):
    """The assembled system matrix is singular or contains non-finite entries."""


class NonConvergenceError(SolverError):
    """Iteration budget exhausted before the residual tolerance was met."""

    def __init__(self, message: str, state=None, iteration=None,
                 residual_norm: float = np.nan):
        super().__init__(message, state=state, iteration=iteration)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class CoupledSystem:
    """Residuals and block Jacobian of coupled fields.

    ``residual(state)`` returns one residual vector per field and
    ``jacobian(state)`` returns the nested blocks ``d f_i / d y_j``, exactly
    zero where field ``i`` does not depend on field ``j``.  The state vector
    concatenates the per-field solution vectors in ``field_dims`` order,
    primary field first.
    """

    field_dims: tuple[int, ...]
    residual: Callable[[np.ndarray], Sequence[np.ndarray]]
    jacobian: Callable[[np.ndarray], Sequence[Sequence[np.ndarray]]]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.field_dims)
        if not dims or any(d < 1 for d in dims):
            raise StructureError(f"field_dims must be positive, got {self.field_dims}")
        object.__setattr__(self, "field_dims", dims)

    @property
    def n_fields(self) -> int:
        return len(self.field_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.field_dims)

    def stacked_residual(self, state: np.ndarray) -> np.ndarray:
        """Residual vectors of all fields concatenated, with shape checks."""
        parts = self.residual(np.asarray(state, dtype=float))
        if len(parts) != self.n_fields:
            raise StructureError(
                f"residual returned {len(parts)} fields, expected {self.n_fields}")
        out = []
        for i, (part, dim) in enumerate(zip(parts, self.field_dims)):
            vec = np.atleast_1d(np.asarray(part, dtype=float))
            if vec.shape != (dim,):
                raise StructureError(
                    f"residual block {i} has shape {vec.shape}, expected ({dim},)")
            out.append(vec)
        return np.concatenate(out)


@dataclass(frozen=True)
class NewtonSettings:
    """Convergence control for :func:`newton_solve`.

    The tolerance is an absolute bound on the Euclidean norm of the stacked
    residual, in the system's natural units.
    """

    initial_state: np.ndarray
    residual_tolerance: float = 1e-12
    max_iterations: int = 50
    max_step_halvings: int = 30

    def __post_init__(self):
        object.__setattr__(
            self, "initial_state",
            np.atleast_1d(np.asarray(self.initial_state, dtype=float)))
        if not self.residual_tolerance > 0:
            raise ValueError(f"residual_tolerance must be > 0, "
                             f"got {self.residual_tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class NewtonResult:
    """Converged state plus the residual-norm history of the iteration."""

    state: np.ndarray
    iterations: int
    residual_norms: tuple[float, ...] = field(repr=False, default=())


def assemble_block_jacobian(system: CoupledSystem, state: np.ndarray) -> np.ndarray:
    """The full system matrix: the callback's blocks, validated against
    ``field_dims`` and assembled unchanged."""
    blocks = system.jacobian(np.asarray(state, dtype=float))
    n = system.n_fields
    if len(blocks) != n:
        raise StructureError(
            f"jacobian returned {len(blocks)} block rows, expected {n}")
    rows = []
    for i, row in enumerate(blocks):
        if len(row) != n:
            raise StructureError(
                f"jacobian block row {i} has {len(row)} blocks, expected {n}")
        out_row = []
        for j, block in enumerate(row):
            mat = np.atleast_2d(np.asarray(block, dtype=float))
            want = (system.field_dims[i], system.field_dims[j])
            if mat.shape != want:
                raise StructureError(
                    f"jacobian block ({i}, {j}) has shape {mat.shape}, "
                    f"expected {want}")
            out_row.append(mat)
        rows.append(out_row)
    return np.block(rows)


def newton_solve(system: CoupledSystem, settings: NewtonSettings) -> NewtonResult:
    """Monolithic Newton iteration on the stacked residual.

    Each iteration solves ``A(y) dy = -f(y)`` with a dense direct
    factorization and applies the full correction.  If the full step lands
    where the residual is non-finite or raises (a domain error from the
    callee), the step is halved up to ``max_step_halvings`` times as a
    safety net; there is no line search otherwise.
    """
    state = settings.initial_state.copy()
    if state.shape != (system.total_dim,):
        raise StructureError(
            f"initial_state has shape {state.shape}, "
            f"expected ({system.total_dim},)")

    residual = system.stacked_residual(state)
    norm = float(np.linalg.norm(residual))
    history = [norm]
    if not np.isfinite(norm):
        raise SolverError("residual is non-finite at the initial state",
                          state=state, iteration=0)
    if norm <= settings.residual_tolerance:
        return NewtonResult(state, 0, tuple(history))

    for iteration in range(1, settings.max_iterations + 1):
        matrix = assemble_block_jacobian(system, state)
        if not np.all(np.isfinite(matrix)):
            raise SingularJacobianError(
                f"non-finite Jacobian at iteration {iteration}",
                state=state, iteration=iteration)
        try:
            delta = np.linalg.solve(matrix, -residual)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iteration}: {exc}",
                state=state, iteration=iteration) from exc

        step = delta
        candidate = None
        cand_residual = None
        for _ in range(settings.max_step_halvings + 1):
            trial = state + step
            try:
                trial_residual = system.stacked_residual(trial)
            except (ValueError, ArithmeticError):
                step = step / 2
                continue
            if np.all(np.isfinite(trial_residual)):
                candidate, cand_residual = trial, trial_residual
                break
            step = step / 2
        if candidate is None:
            raise NonConvergenceError(
                f"step halving exhausted at iteration {iteration}",
                state=state, iteration=iteration, residual_norm=norm)

        state, residual = candidate, cand_residual
        norm = float(np.linalg.norm(residual))
        history.append(norm)
        if norm <= settings.residual_tolerance:
            return NewtonResult(state, iteration, tuple(history))

    raise NonConvergenceError(
        f"no convergence in {settings.max_iterations} iterations "
        f"(residual norm {norm:.3e})",
        state=state, iteration=settings.max_iterations, residual_norm=norm)
