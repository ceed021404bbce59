"""Multi-field nonlinear algebraic systems and a monolithic Newton solver.

A coupled system bundles per-field residual callbacks with an analytic block
Jacobian and a declared coupling pattern (uncoupled, one-way, fully coupled).
The solver linearizes all fields simultaneously and solves the stacked block
system for the full correction in every iteration.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

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


class CouplingType(Enum):
    """Structural dependency pattern between the fields of a system.

    The pattern fixes which off-diagonal Jacobian blocks are identically
    zero at every state: all of them (UNCOUPLED), the blocks above the
    diagonal (ONE_WAY, with fields ordered primary first), or none (FULL).
    """

    UNCOUPLED = "uncoupled"
    ONE_WAY = "one-way"
    FULL = "full"

    def structural_zero_blocks(self, n_fields: int) -> list[tuple[int, int]]:
        """Block indices (i, j) that are identically zero under this pattern."""
        if self is CouplingType.UNCOUPLED:
            return [(i, j) for i in range(n_fields) for j in range(n_fields) if i != j]
        if self is CouplingType.ONE_WAY:
            return [(i, j) for i in range(n_fields) for j in range(n_fields) if i < j]
        return []


@dataclass(frozen=True)
class CoupledSystem:
    """Declarative bundle of residuals and block Jacobian for coupled fields.

    ``residual(state)`` returns one residual vector per field and
    ``jacobian(state)`` returns the nested blocks ``d f_i / d y_j``.  The
    state vector concatenates the per-field solution vectors in declaration
    order, primary field first.
    """

    field_dims: tuple[int, ...]
    residual: Callable[[np.ndarray], Sequence[np.ndarray]]
    jacobian: Callable[[np.ndarray], Sequence[Sequence[np.ndarray]]]
    declared_coupling: CouplingType = CouplingType.FULL

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

    def jacobian_blocks(self, state: np.ndarray) -> list[list[np.ndarray]]:
        """Raw Jacobian blocks from the callback, validated against field_dims."""
        blocks = self.jacobian(np.asarray(state, dtype=float))
        if len(blocks) != self.n_fields:
            raise StructureError(
                f"jacobian returned {len(blocks)} block rows, expected {self.n_fields}")
        out = []
        for i, row in enumerate(blocks):
            if len(row) != self.n_fields:
                raise StructureError(
                    f"jacobian block row {i} has {len(row)} blocks, "
                    f"expected {self.n_fields}")
            out_row = []
            for j, block in enumerate(row):
                mat = np.atleast_2d(np.asarray(block, dtype=float))
                want = (self.field_dims[i], self.field_dims[j])
                if mat.shape != want:
                    raise StructureError(
                        f"jacobian block ({i}, {j}) has shape {mat.shape}, "
                        f"expected {want}")
                out_row.append(mat)
            out.append(out_row)
        return out


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
    """Assemble the full system matrix from the per-field Jacobian blocks.

    Blocks that are structurally zero under the declared coupling are written
    as exact zeros, regardless of what the callback returns; use
    :func:`verify_coupling_structure` to audit that the declaration is honest.
    """
    blocks = system.jacobian_blocks(state)
    zero = set(system.declared_coupling.structural_zero_blocks(system.n_fields))
    rows = []
    for i, row in enumerate(blocks):
        rows.append([np.zeros_like(b) if (i, j) in zero else b
                     for j, b in enumerate(row)])
    return np.block(rows)


def verify_coupling_structure(system: CoupledSystem,
                              sample_states: Sequence[np.ndarray],
                              atol: float = 0.0) -> bool:
    """Check the declared zero blocks against the raw Jacobian callback.

    True iff every structurally-zero block has magnitude <= ``atol`` at every
    sampled state.  Single-field systems are vacuously true.
    """
    states = list(sample_states)
    if not states:
        raise ValueError("sample_states must be non-empty")
    zero = system.declared_coupling.structural_zero_blocks(system.n_fields)
    if not zero:
        return True
    for state in states:
        blocks = system.jacobian_blocks(state)
        for (i, j) in zero:
            if not np.all(np.abs(blocks[i][j]) <= atol):
                return False
    return True


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
