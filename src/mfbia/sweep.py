"""Parameter studies over observation configurations.

A sweep, the ``sweep`` of a :class:`~mfbia.config.RunConfig`, fixes two
field observation plans and lists several values for some of their
settings, or for model constants, on named axes.  Each cell of the axis
grid compares the single-field information gain of field 1 with the
two-field gain, and reports their relative increase (RIIG).  Cells run in one
fixed order: ``n_obs1``, ``snr1``, ``n_obs2``, ``snr2``, then the model
constants, the first axis varying slowest.

Cells are pure functions of the run configuration.  They run in tasks: a
task is every cell that shares all axis values but ``snr1`` and ``snr2``,
so all its cells share the observation counts and the model constants.  A
task computes field 2's misfit moments on the posterior grid (see
:func:`~mfbia.probabilistic.misfit_moments`) once, and the single-field
gain once per ``snr1`` value; an SNR value then costs one pass over the
nodes.  Field 1's moments depend only on the model constants and
``n_obs1``: tasks that share them are listed next to each other, and each
process keeps the last field-1 analysis it computed.  Tasks can run on any
number of processes without changing a single bit of the output; failures
are recorded per cell and never abort the sweep.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import multiprocessing
import numbers
import time
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .inference import (
    PriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    riig,
)
from .models import build_model
from .probabilistic import (
    log_likelihood,
    misfit_moments,
    sigma_from_snr,
    sobol_standard_normal,
    synthesize_observations,
)

if TYPE_CHECKING:
    from .config import RunConfig

#: Axis names that set an observation plan; any other axis names a model
#: constant.  Cells iterate in this order, then the constants.
FIELD_AXES = ("n_obs1", "snr1", "n_obs2", "snr2")
SWEEP_METRICS = ("ig_single", "ig_multi", "riig", "boundary_mass", "status")


def _count(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is an
    integral, finite number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if float(value).is_integer():
                return int(value)
        except OverflowError as exc:
            raise ValueError(f"{name}: {exc}") from None
    raise ValueError(f"{name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class FieldSpec:
    """Count, SNR, and coordinate range of one field's observations.

    Each error names the offending setting first, as in ``snr: ...``.
    """

    field_id: int
    count: int
    snr: float
    coord_range: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "count", _count("count", self.count))
        if self.count < 0:
            raise ValueError(f"count: must be >= 0, got {self.count}")
        if self.count > 0 and not 0 < self.snr < math.inf:
            raise ValueError(f"snr: must be finite and > 0, got {self.snr}")
        if not self.coord_range[1] >= self.coord_range[0]:
            raise ValueError("range: must be increasing")

    def coordinates(self) -> np.ndarray:
        return np.linspace(self.coord_range[0], self.coord_range[1],
                           self.count)


@dataclass(frozen=True)
class SweepResult:
    """One cell of the study; numeric fields are None when status != ok.

    ``point`` maps each axis name to the cell's value on that axis.
    """

    point: dict
    ig_single: float | None
    ig_multi: float | None
    riig: float | None
    boundary_mass: float | None
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


#: Axes that set only a cell's noise variance; a task varies only these.
NOISE_AXES = ("snr1", "snr2")


def sweep_tasks(config: RunConfig) -> list[list[int]]:
    """The cells of the sweep, as indices in cell order grouped into tasks.

    A task is every cell that shares all axis values but ``snr1`` and
    ``snr2``, in cell order.  Tasks that share a field-1 analysis (see
    :func:`_field1_key`) are listed next to each other, and otherwise in
    the order of their first cells.
    """
    shared = [k for k, name in enumerate(config.sweep)
              if name not in NOISE_AXES]
    groups = {}
    for index, values in enumerate(itertools.product(*config.sweep.values())):
        point = dict(zip(config.sweep, values))
        groups.setdefault(_field1_key(point), {}).setdefault(
            tuple(values[k] for k in shared), []).append(index)
    return [task for tasks in groups.values() for task in tasks.values()]


def field_moments(model, truth, plan: FieldSpec, nodes, threads=None):
    """Observations of ``plan``, their truth outputs, and misfit moments.

    Synthesis checks the truth outputs.  The moments of ``model`` on
    ``nodes`` are taken about them with the deviates synthesis adds, and
    carry no noise variance; at an SNR it is :func:`sigma_from_snr` of the
    truth outputs, the observations' ``noise_variance`` at the plan's SNR.
    ``threads`` bounds the reduction's threads, as in
    :func:`~mfbia.probabilistic.misfit_moments`.
    """
    truth = np.asarray(truth, dtype=float)
    coords = plan.coordinates()
    observations = synthesize_observations(model, truth, plan.field_id,
                                           coords, plan.snr)
    centre = model.outputs(truth, plan.field_id, coords)
    moments = misfit_moments(model, nodes, plan.field_id, coords, centre,
                             sobol_standard_normal(centre.size), threads)
    return observations, centre, moments


def _field1_key(point: dict) -> tuple:
    """What a cell's field-1 analysis depends on within its sweep: its
    model constants and its ``n_obs1`` value, None without that axis."""
    constants = tuple((name, value) for name, value in point.items()
                      if name not in FIELD_AXES)
    return constants, point.get("n_obs1")


class _TaskIndex:
    """Hands out the numbers of a sweep's ``tasks`` (see
    :func:`sweep_tasks`), each once and in order.  Made for more than one
    process, it keeps the next number in shared memory, so the pool
    workers forked after it draw from the same sequence as the process
    that made it."""

    def __init__(self, tasks: list[list[int]], processes: int = 1):
        self.tasks = tasks
        self._next = 0
        self._shared = multiprocessing.Value("l", 0) if processes > 1 \
            else None

    def claim(self) -> int | None:
        """The next unclaimed task number, or None once all are claimed."""
        if self._shared is None:
            number, self._next = self._next, self._next + 1
        else:
            with self._shared.get_lock():
                number = self._shared.value
                self._shared.value = number + 1
        return number if number < len(self.tasks) else None


class _TaskEvaluator:
    """Evaluates the tasks of one sweep in one process.

    All cells of a task share the observation counts and the model
    constants, so each field's misfit moments on the node grid are
    computed once per task, and the single-field gain once per field-1
    noise variance; each cell composes the moments at its own noise
    variances.  The evaluator also keeps the last field-1 analysis it
    computed, so consecutive tasks that share its key compute it once.  On
    several processes, each one that runs one of those tasks computes it:
    the work done depends on scheduling, the bits of a cell do not.
    ``index`` hands out the sweep's tasks, and ``threads`` bounds each
    misfit reduction's threads, as in
    :func:`~mfbia.probabilistic.misfit_moments`.
    """

    def __init__(self, config: RunConfig, index: _TaskIndex,
                 threads: int | None = None):
        self.config = config
        self.plans = config.sweep_plans()
        self.index = index
        self.threads = threads
        self.cells = list(itertools.product(*config.sweep.values()))
        self.grid = PriorGrid(config.prior, cdf_spaced_grid(
            config.prior, config.grid_shape))
        self.field1 = (None, None)   # last field-1 key, (centre, moments)

    def __call__(self, cells: list[tuple]) -> list[SweepResult]:
        # field number -> (truth outputs, misfit moments), and
        # (field number, SNR) -> moments at that SNR's noise variance
        memo = {}
        gains = {}   # field-1 noise variance -> single-field gain
        return [self._cell(values, memo, gains) for values in cells]

    def _plan(self, k: int, point: dict) -> FieldSpec:
        """Field ``k``'s observation plan at the cell's axis values."""
        plan = self.plans[k - 1]
        return replace(plan, count=point.get(f"n_obs{k}", plan.count),
                       snr=point.get(f"snr{k}", plan.snr))

    def analysis(self, model, k: int, point: dict) -> tuple:
        """Field ``k``'s truth outputs and misfit moments at the cell's
        observation count."""
        return field_moments(model, self.config.truth, self._plan(k, point),
                             self.grid.nodes, self.threads)[1:]

    def _moments(self, model, k: int, point: dict, memo: dict):
        """Field ``k``'s misfit moments on the grid at the cell's noise."""
        if k not in memo:
            if k == 1:
                key = _field1_key(point)
                if self.field1[0] != key:
                    self.field1 = (key, self.analysis(model, 1, point))
            memo[k] = self.field1[1] if k == 1 else \
                self.analysis(model, k, point)
        snr = self._plan(k, point).snr
        if (k, snr) not in memo:
            centre, moments = memo[k]
            memo[k, snr] = moments.with_noise(sigma_from_snr(centre, snr))
        return memo[k, snr]

    def _posterior(self, model, moments: list):
        return evaluate_posterior(
            self.config.prior,
            lambda nodes: log_likelihood(model, nodes, moments), self.grid)

    def _cell(self, values: tuple, memo: dict, gains: dict) -> SweepResult:
        config = self.config
        point = dict(zip(config.sweep, values))
        try:
            constants, _ = _field1_key(point)
            model = build_model(config.model,
                                {**config.constants, **dict(constants)})
            moments1 = self._moments(model, 1, point, memo)
            if moments1.noise_variance not in gains:
                gains[moments1.noise_variance] = information_gain(
                    self._posterior(model, [moments1]), config.prior)
            ig_single = gains[moments1.noise_variance]
            moments2 = self._moments(model, 2, point, memo)
            posterior = self._posterior(model, [moments1, moments2])
            ig_multi = information_gain(posterior, config.prior)
            return SweepResult(point=point, ig_single=ig_single,
                               ig_multi=ig_multi,
                               riig=riig(ig_single, ig_multi),
                               boundary_mass=posterior.boundary_mass)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            return SweepResult(point=point, ig_single=None, ig_multi=None,
                               riig=None, boundary_mass=None,
                               status=f"failed:{exc}")


#: The sweep context of this process, set by :func:`_install`;
#: :func:`run_riig_sweep` clears it again when its sweep ends.
_evaluator: _TaskEvaluator | None = None


def _install(config: RunConfig, index: _TaskIndex,
             threads: int | None = None) -> None:
    """Set this process's sweep context: the sweep's own set-up, and the
    pool initializer.  A worker forked from the sweep's process keeps the
    context it inherits, so it builds no second prior grid."""
    global _evaluator
    if _evaluator is None or _evaluator.index is not index:
        _evaluator = _TaskEvaluator(config, index, threads)


def _evaluate_task(cells: list[tuple]) -> list[SweepResult]:
    return _evaluator(cells)


def _evaluate_next() -> tuple[int, list[SweepResult]] | None:
    """Claim the next task of the sweep and evaluate it: the task number
    and its cells' results, or None once every task is claimed."""
    index = _evaluator.index
    number = index.claim()
    if number is None:
        return None
    return number, _evaluate_task([_evaluator.cells[cell]
                                   for cell in index.tasks[number]])


def run_riig_sweep(config: RunConfig, workers: int = 1,
                   progress=None) -> list[SweepResult]:
    """Evaluate the relative information-gain increase on every cell.

    Runs on ``min(workers, tasks)`` processes (see :func:`sweep_tasks`),
    this one included: it forks a pool of the others, sends the pool one
    claim per task, and runs tasks itself.  Each process claims its next
    task from one shared :class:`_TaskIndex` whenever it is free, so none
    idles while a task is unclaimed; a claim made once all are claimed
    does nothing.  A claim carries no cell values.  On more than one
    process, every misfit reduction runs on one thread.  Progress is
    reported once per cell as its task's results arrive.  Results come
    back in cell order, the first axis varying slowest, and are identical
    for any worker count.  A task that raises, or a pool that breaks,
    stops the sweep with that error.
    """
    global _evaluator
    tasks = sweep_tasks(config)
    processes = min(workers, len(tasks))
    index = _TaskIndex(tasks, processes)
    threads = 1 if processes > 1 else None
    collected = [None] * sum(len(task) for task in tasks)
    done = 0

    def record(number: int, results: list[SweepResult]) -> None:
        nonlocal done
        for cell, result in zip(tasks[number], results):
            collected[cell] = result
            done += 1
            if progress is not None:
                progress(done, len(collected))

    def record_claim(claim) -> None:
        if (claimed := claim.result()) is not None:
            record(*claimed)

    pool, pending = None, set()
    try:
        _install(config, index, threads)
        if processes > 1:
            pool = ProcessPoolExecutor(processes - 1, initializer=_install,
                                       initargs=(config, index, threads))
            pending = {pool.submit(_evaluate_next) for _ in tasks}
        while (claimed := _evaluate_next()) is not None:
            record(*claimed)
            finished, pending = wait(pending, timeout=0)
            for claim in finished:
                record_claim(claim)
        for claim in as_completed(pending):
            record_claim(claim)
        return collected
    finally:
        # a sweep that failed leaves no task for its pool to start
        while index.claim() is not None:
            pass
        if pool is not None:
            pool.shutdown()
        # the grid and the last field-1 analysis end with the sweep
        _evaluator = None


def run_coupling_sweep(config: RunConfig, workers: int = 1,
                       progress=None) -> list[SweepResult]:
    """Same as :func:`run_riig_sweep`; a separate function, not an alias,
    because ``bench/layertrace.py`` wraps both names."""
    return run_riig_sweep(config, workers, progress)


def _format(value) -> str:
    if value is None:
        return ""
    return repr(value if isinstance(value, int) else float(value))


def export_sweep_csv(results, path) -> None:
    """CSV of the cell results in cell order; byte-stable across runs.

    The header is the axis names followed by :data:`SWEEP_METRICS`.
    """
    results = list(results)
    if not results:
        raise ValueError("results must be non-empty")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([*results[0].point, *SWEEP_METRICS])
        for res in results:
            writer.writerow([*map(_format, res.point.values()),
                             _format(res.ig_single), _format(res.ig_multi),
                             _format(res.riig), _format(res.boundary_mass),
                             res.status])


def _spec_payload(config: RunConfig) -> dict:
    return {
        "model": config.model,
        "model_constants": dict(config.constants),
        "truth": list(config.truth),
        "prior": {
            "mean": config.prior.mean.tolist(),
            "variance": config.prior.variance.tolist(),
            "lower": config.prior.lower.tolist(),
            "upper": [v if np.isfinite(v) else None
                      for v in config.prior.upper.tolist()],
        },
        "grid_shape": list(config.grid_shape),
        "fields": [{"id": plan.field_id, "count": plan.count,
                    "snr": plan.snr, "range": list(plan.coord_range)}
                   for plan in config.sweep_plans()],
        "axes": {name: list(axis) for name, axis in config.sweep.items()},
    }


def write_run_manifest(path, config: RunConfig, results, *, workers: int,
                       runtime_seconds: float | None = None) -> None:
    """JSON record of what ran: spec echo, tool version, timing, outcome."""
    results = list(results)
    payload = {
        "tool": "mfbia",
        "version": __version__,
        "spec": _spec_payload(config),
        "workers": workers,
        "cells": len(results),
        "failed_cells": sum(0 if r.ok else 1 for r in results),
        "runtime_seconds": runtime_seconds,
        "written_at_unix": time.time() if runtime_seconds is not None else None,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
