"""Parameter studies over observation configurations.

A sweep, the ``sweep`` of a :class:`~mfbia.config.RunConfig`, fixes two
field observation plans and lists several values for some of their
settings, or for model constants, on named axes.  Each cell of the axis
grid compares the single-field information gain of field 1 with the
two-field gain, and reports their relative increase (RIIG).  Cells run in one
fixed order: ``n_obs1``, ``snr1``, ``n_obs2``, ``snr2``, then the model
constants, the first axis varying slowest.  The axis names, the plans
(:class:`~mfbia.config.FieldSpec`) and the checks of every axis value
belong to :mod:`mfbia.config`; this module only runs the cells.

Cells are pure functions of the run configuration.  They run in tasks: a
task is every cell that shares all axis values but ``snr1`` and ``snr2``,
so all its cells share the observation counts and the model constants.  A
task computes field 2's misfit moments on the posterior grid once, and the
single-field gain once per ``snr1`` value; an SNR value then costs one
pass over the nodes.  Field 1's moments depend only on the model constants
and ``n_obs1``: tasks that share them are listed next to each other, and
each process keeps the last field-1 analysis it computed.  On several
processes, every task goes to a process pool as a future, and the calling
process takes each one the pool has not handed to a worker.  Each process
reduces its misfits on one :class:`~mfbia.probabilistic.ReductionPool`.
The calling process looks one task ahead: it queues the next task's
reductions before it evaluates a task's cells, so at most two tasks'
moments are alive in it.  Alone, it reduces them on helper threads while
its calling thread evaluates posteriors; beside other processes, every
process reduces on its calling thread only.  Tasks can run on any number
of processes and threads without changing a single bit of the output;
failures are recorded per cell and never abort the sweep.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import FIELD_AXES, FieldSpec, RunConfig
from .inference import (
    PriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    riig,
)
from .models import build_model
from .probabilistic import (
    ReductionPool,
    log_likelihood,
    sigma_from_snr,
    sobol_standard_normal,
    synthesize_observations,
    write_csv,
)

SWEEP_METRICS = ("ig_single", "ig_multi", "riig", "boundary_mass", "status")


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


def field_moments(model, truth, plan: FieldSpec, nodes,
                  pool: ReductionPool):
    """Observations of ``plan``, their truth outputs, and the misfit
    reduction queued on ``pool``, whose ``result()`` is the moments.

    Synthesis checks the truth outputs.  The moments of ``model`` on
    ``nodes`` are taken about them with the deviates synthesis adds; data
    at an SNR pair them with :func:`sigma_from_snr` of the truth outputs,
    the observations' ``noise_variance`` at the plan's SNR.
    """
    truth = np.asarray(truth, dtype=float)
    coords = plan.coordinates()
    observations = synthesize_observations(model, truth, plan.field_id,
                                           coords, plan.snr)
    centre = model.outputs(truth, plan.field_id, coords)
    reduction = pool.submit(model, nodes, plan.field_id, coords, centre,
                            sobol_standard_normal(centre.size))
    return observations, centre, reduction


def _field1_key(point: dict) -> tuple:
    """What a cell's field-1 analysis depends on within its sweep: its
    model constants and its ``n_obs1`` value, None without that axis."""
    constants = tuple((name, value) for name, value in point.items()
                      if name not in FIELD_AXES)
    return constants, point.get("n_obs1")


@dataclass(frozen=True)
class _Task:
    """A task ready to evaluate: its cells' axis values and, per field
    number, the truth outputs and the queued misfit reduction, or the
    error that preparing them raised."""

    cells: list[tuple]
    analyses: dict


class _TaskEvaluator:
    """Evaluates the tasks of one sweep in one process.

    All cells of a task share the observation counts and the model
    constants, so :meth:`prepare` synthesizes each field's observations
    and queues its misfit reduction on the grid once per task; a cell
    composes the moments at its own noise variances, and the single-field
    gain is computed once per field-1 noise variance.  The evaluator also
    keeps the last field-1 analysis it prepared, so consecutive tasks that
    share its key compute it once.  On several processes, each one that
    runs one of those tasks computes it: the work done depends on
    scheduling, the bits of a cell do not.  ``tasks`` are the sweep's
    tasks (see :func:`sweep_tasks`).  The reductions run on one
    :class:`~mfbia.probabilistic.ReductionPool` of ``threads`` threads:
    the default, or 1 beside other processes, so that no helper thread is
    alive when the sweep forks.
    """

    def __init__(self, config: RunConfig, tasks: list[list[int]],
                 threads: int | None = None):
        self.config = config
        self.plans = config.sweep_plans()
        self.tasks = tasks
        self.pool = ReductionPool(threads)
        self.cells = list(itertools.product(*config.sweep.values()))
        self.grid = PriorGrid(config.prior, cdf_spaced_grid(
            config.prior, config.grid_shape))
        self.field1 = (None, None)   # last field-1 key, (centre, reduction)

    def __call__(self, task: _Task) -> list[SweepResult]:
        # (field number, SNR) -> (moments, that SNR's noise variance)
        memo = {}
        gains = {}   # field-1 noise variance -> single-field gain
        return [self._cell(values, task, memo, gains)
                for values in task.cells]

    def _plan(self, k: int, point: dict) -> FieldSpec:
        """Field ``k``'s observation plan at the cell's axis values."""
        plan = self.plans[k - 1]
        return replace(plan, count=point.get(f"n_obs{k}", plan.count),
                       snr=point.get(f"snr{k}", plan.snr))

    def analysis(self, model, k: int, point: dict) -> tuple:
        """Field ``k``'s truth outputs and queued misfit reduction at the
        cell's observation count."""
        return field_moments(model, self.config.truth, self._plan(k, point),
                             self.grid.nodes, self.pool)[1:]

    def prepare(self, number: int) -> _Task:
        """Task ``number`` with its analyses queued.  An error raised on
        the way is kept for its cells to report: each fails at the first
        field whose analysis failed."""
        cells = [self.cells[cell] for cell in self.tasks[number]]
        point = dict(zip(self.config.sweep, cells[0]))
        analyses = {}
        try:
            key = _field1_key(point)
            model = build_model(self.config.model,
                                {**self.config.constants, **dict(key[0])})
            if self.field1[0] != key:
                self.field1 = (key, self.analysis(model, 1, point))
            analyses[1] = self.field1[1]
            analyses[2] = self.analysis(model, 2, point)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            analyses.setdefault(1, exc)
            analyses[2] = exc
        return _Task(cells, analyses)

    def _moments(self, k: int, point: dict, task: _Task, memo: dict):
        """Field ``k``'s likelihood term: its misfit moments on the grid
        and the cell's noise variance."""
        snr = self._plan(k, point).snr
        if (k, snr) not in memo:
            analysis = task.analyses[k]
            if isinstance(analysis, Exception):
                raise analysis
            centre, reduction = analysis
            memo[k, snr] = (reduction.result(), sigma_from_snr(centre, snr))
        return memo[k, snr]

    def _cell(self, values: tuple, task: _Task, memo: dict,
              gains: dict) -> SweepResult:
        point = dict(zip(self.config.sweep, values))
        try:
            term1 = self._moments(1, point, task, memo)
            if term1[1] not in gains:
                gains[term1[1]] = information_gain(
                    evaluate_posterior(log_likelihood([term1]), self.grid))
            ig_single = gains[term1[1]]
            term2 = self._moments(2, point, task, memo)
            posterior = evaluate_posterior(log_likelihood([term1, term2]),
                                           self.grid)
            ig_multi = information_gain(posterior)
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


def _install(config: RunConfig, tasks: list, threads: int | None) -> None:
    """Set this process's sweep context: the sweep's own set-up, and the
    pool initializer.  A worker forked from the sweep's process keeps the
    context it inherits, so it builds no second prior grid."""
    global _evaluator
    if _evaluator is None or _evaluator.tasks is not tasks:
        _evaluator = _TaskEvaluator(config, tasks, threads)


def _evaluate_task(task: _Task) -> list[SweepResult]:
    return _evaluator(task)


def _evaluate(number: int) -> tuple[int, list[SweepResult]]:
    """Evaluate task ``number``: the number and its cells' results."""
    return number, _evaluate_task(_evaluator.prepare(number))


def run_riig_sweep(config: RunConfig, workers: int = 1,
                   progress=None) -> list[SweepResult]:
    """Evaluate the relative information-gain increase on every cell.

    Runs on ``min(workers, tasks)`` processes (see :func:`sweep_tasks`),
    this one included.  With more than one, it forks a pool of the others
    and submits every task to it by number.  This process walks the task
    numbers in order and takes each task whose future it can still cancel,
    that is, each one the pool has not handed to a worker; alone, it takes
    every task.  It looks one task ahead: it takes its next task, and
    queues its misfit reductions, before it evaluates this one, then
    records the pool's finished tasks.  Progress is reported once per cell
    as its task's results arrive.  Results come back in cell order, the
    first axis varying slowest, and are identical for any worker count.  A
    task that raises, or a pool that breaks, stops the sweep with that
    error; no task that the pool has not handed to a worker starts then.
    """
    global _evaluator
    tasks = sweep_tasks(config)
    processes = min(workers, len(tasks))
    collected = [None] * sum(len(task) for task in tasks)
    done = 0

    def record(number: int, results: list[SweepResult]) -> None:
        nonlocal done
        for cell, result in zip(tasks[number], results):
            collected[cell] = result
            done += 1
            if progress is not None:
                progress(done, len(collected))

    pool, futures, numbers = None, [], iter(range(len(tasks)))

    def take() -> tuple[int, _Task] | None:
        """The next task no pool worker has started, prepared, or None."""
        for number in numbers:
            if pool is not None:
                future = futures[number]
                if not future.cancel():
                    continue
                # wait() counts a cancelled future as done only once the
                # pool has seen it; a pool that breaks before then raises
                # on it in set_exception() on Python before 3.12.1
                pending.remove(future)
                future.set_exception = lambda exception: None
            return number, _evaluator.prepare(number)
        return None

    try:
        _install(config, tasks, None if processes == 1 else 1)
        if processes > 1:
            pool = ProcessPoolExecutor(processes - 1, initializer=_install,
                                       initargs=(config, tasks, 1))
            futures = [pool.submit(_evaluate, number)
                       for number in range(len(tasks))]
        pending = set(futures)
        ahead = take()
        while ahead is not None or pending:
            if ahead is None:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            else:
                number, task = ahead
                ahead = take()
                record(number, _evaluate_task(task))
                finished, pending = wait(pending, timeout=0)
            for future in finished:
                record(*future.result())
        return collected
    finally:
        # a sweep that failed leaves no task for its pool to start
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        # the grid, the reduction threads and the last field-1 analysis
        # end with the sweep
        if _evaluator is not None:
            _evaluator.pool.close()
        _evaluator = None


def run_coupling_sweep(config: RunConfig, workers: int = 1,
                       progress=None) -> list[SweepResult]:
    """Same as :func:`run_riig_sweep`; a separate function, not an alias,
    because ``bench/layertrace.py`` wraps both names."""
    return run_riig_sweep(config, workers, progress)


def export_sweep_csv(results, path) -> None:
    """CSV of the cell results in cell order; byte-stable across runs.

    The header is the axis names followed by :data:`SWEEP_METRICS`; a
    failed cell's numeric fields are empty.
    """
    results = list(results)
    if not results:
        raise ValueError("results must be non-empty")
    write_csv(path, [*results[0].point, *SWEEP_METRICS],
              ([*res.point.values(),
                *(getattr(res, metric) for metric in SWEEP_METRICS)]
               for res in results))


def _spec_payload(config: RunConfig) -> dict:
    def finite(value):   # JSON has no inf or NaN; null stands for them
        return value if math.isfinite(value) else None

    return {
        "model": config.model,
        "model_constants": dict(config.constants),
        "truth": list(config.truth),
        "prior": {
            "mean": config.prior.mean.tolist(),
            "variance": config.prior.variance.tolist(),
            "lower": list(map(finite, config.prior.lower.tolist())),
            "upper": list(map(finite, config.prior.upper.tolist())),
        },
        "grid_shape": list(config.grid_shape),
        "fields": [{"id": plan.field_id, "count": plan.count,
                    "snr": finite(plan.snr), "range": list(plan.coord_range)}
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
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
