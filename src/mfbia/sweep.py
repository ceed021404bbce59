"""Parameter studies over observation configurations.

A sweep fixes two field observation plans and lists several values for some
of their settings, or for model constants, on named axes.  Each cell of the
axis grid compares the single-field information gain of field 1 with the
two-field gain, and reports their relative increase (RIIG).  Cells run in one
fixed order: ``n_obs1``, ``snr1``, ``n_obs2``, ``snr2``, then the model
constants, the first axis varying slowest.

Cells are pure functions of the sweep specification, so they can run on any
number of workers without changing a single bit of the output; failures are
recorded per cell and never abort the sweep.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .inference import (
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    riig,
)
from .models import build_model
from .probabilistic import (
    TruncatedNormalPrior,
    log_likelihood,
    synthesize_observations,
)

#: Axis names that set an observation plan; any other axis names a model
#: constant.  Cells iterate in this order, then the constants.
FIELD_AXES = ("n_obs1", "snr1", "n_obs2", "snr2")
SWEEP_METRICS = ("ig_single", "ig_multi", "riig", "boundary_mass", "status")


@dataclass(frozen=True)
class FieldSpec:
    """Count, SNR, and coordinate range of one field's observations."""

    field_id: int
    count: int
    snr: float
    coord_range: tuple[float, float]

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.count > 0 and not self.snr > 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")
        if not self.coord_range[1] >= self.coord_range[0]:
            raise ValueError("range must be increasing")

    def coordinates(self) -> np.ndarray:
        return np.linspace(self.coord_range[0], self.coord_range[1],
                           self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Two fixed field plans and the named axes that vary them.

    ``axes`` maps an axis name from :data:`FIELD_AXES`, or a model
    constructor argument, to its values; it is stored in cell order.
    """

    model_name: str
    truth: tuple[float, ...]
    prior: TruncatedNormalPrior
    first_field: FieldSpec
    second_field: FieldSpec
    axes: dict
    grid_shape: tuple[int, ...]
    model_constants: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "truth", tuple(float(v) for v in self.truth))
        object.__setattr__(self, "grid_shape",
                           tuple(int(n) for n in self.grid_shape))
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        names = [n for n in FIELD_AXES if n in self.axes]
        names += [n for n in self.axes if n not in FIELD_AXES]
        axes = {}
        for name in names:
            cast = int if name.startswith("n_obs") else float
            values = tuple(cast(v) for v in self.axes[name])
            if not values or not all(np.diff(values) > 0):
                raise ValueError(f"{name}: axis must be non-empty and "
                                 f"strictly increasing, got {list(values)}")
            axes[name] = values
        object.__setattr__(self, "axes", axes)
        for k, plan in enumerate((self.first_field, self.second_field), 1):
            counts = axes.get(f"n_obs{k}", (plan.count,))
            if min(counts) < 1:
                raise ValueError(f"n_obs{k}: observation counts must be "
                                 f">= 1, got {min(counts)}")
            snrs = axes.get(f"snr{k}", (plan.snr,))
            if not min(snrs) > 0:
                raise ValueError(f"snr{k}: must be > 0, got {min(snrs)}")


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


class _CellEvaluator:
    """Evaluates the cells of one sweep in one process.

    Keeps only the most recent field-1 analysis (likelihood grid and
    single-field gain) and reuses it while the model constants, ``n_obs1``
    and ``snr1`` stay the same, which is every cell of a sweep that varies
    only field 2.
    """

    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self.grid = cdf_spaced_grid(spec.prior, spec.grid_shape)
        self.nodes = np.stack(np.meshgrid(*self.grid, indexing="ij"), axis=-1)
        self.field1 = None      # (key, log-likelihood grid, ig_single)

    def _log_likelihood(self, model, plan: FieldSpec, k: int, point):
        plan = replace(plan, count=point.get(f"n_obs{k}", plan.count),
                       snr=point.get(f"snr{k}", plan.snr))
        obs = synthesize_observations(model, np.array(self.spec.truth),
                                      plan.field_id, plan.coordinates(),
                                      plan.snr)
        return log_likelihood(model, self.nodes, [obs])

    def __call__(self, values: tuple) -> SweepResult:
        spec = self.spec
        point = dict(zip(spec.axes, values))
        try:
            constants = dict(spec.model_constants)
            constants.update((name, value) for name, value in point.items()
                             if name not in FIELD_AXES)
            model = build_model(spec.model_name, constants)
            key = tuple(value for name, value in point.items()
                        if name not in ("n_obs2", "snr2"))
            if self.field1 is None or self.field1[0] != key:
                ll1 = self._log_likelihood(model, spec.first_field, 1, point)
                posterior1 = evaluate_posterior(spec.prior, lambda _: ll1,
                                                self.grid)
                self.field1 = (key, ll1,
                               information_gain(posterior1, spec.prior))
            _, ll1, ig_single = self.field1
            ll2 = self._log_likelihood(model, spec.second_field, 2, point)
            posterior = evaluate_posterior(spec.prior, lambda _: ll1 + ll2,
                                           self.grid)
            ig_multi = information_gain(posterior, spec.prior)
            return SweepResult(point=point, ig_single=ig_single,
                               ig_multi=ig_multi,
                               riig=riig(ig_single, ig_multi),
                               boundary_mass=posterior.boundary_mass)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            return SweepResult(point=point, ig_single=None, ig_multi=None,
                               riig=None, boundary_mass=None,
                               status=f"failed:{exc}")


#: The sweep context of this process, set once by :func:`_install`.
_evaluator: _CellEvaluator | None = None


def _install(spec: SweepSpec) -> None:
    """Set this process's sweep context; the pool initializer, and the
    serial path's set-up."""
    global _evaluator
    _evaluator = _CellEvaluator(spec)


def _evaluate_cell(values: tuple) -> SweepResult:
    return _evaluator(values)


def _collect(results, total: int, progress) -> list[SweepResult]:
    collected = []
    for result in results:
        collected.append(result)
        if progress is not None:
            progress(len(collected), total)
    return collected


def run_riig_sweep(spec: SweepSpec, workers: int = 1,
                   progress=None) -> list[SweepResult]:
    """Evaluate the relative information-gain increase on every cell.

    Results come back in cell order, the first axis varying slowest.
    Identical for any worker count.
    """
    cells = list(itertools.product(*spec.axes.values()))
    if workers <= 1:
        _install(spec)
        return _collect(map(_evaluate_cell, cells), len(cells), progress)
    with ProcessPoolExecutor(max_workers=workers, initializer=_install,
                             initargs=(spec,)) as pool:
        return _collect(pool.map(_evaluate_cell, cells), len(cells), progress)


def run_coupling_sweep(spec: SweepSpec, workers: int = 1,
                       progress=None) -> list[SweepResult]:
    """Same as :func:`run_riig_sweep`; a separate function, not an alias,
    because ``bench/layertrace.py`` wraps both names."""
    return run_riig_sweep(spec, workers, progress)


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


def _spec_payload(spec: SweepSpec) -> dict:
    return {
        "model": spec.model_name,
        "model_constants": dict(spec.model_constants),
        "truth": list(spec.truth),
        "prior": {
            "mean": spec.prior.mean.tolist(),
            "variance": spec.prior.variance.tolist(),
            "lower": spec.prior.lower.tolist(),
            "upper": [v if np.isfinite(v) else None
                      for v in spec.prior.upper.tolist()],
        },
        "grid_shape": list(spec.grid_shape),
        "fields": [{"id": plan.field_id, "count": plan.count,
                    "snr": plan.snr, "range": list(plan.coord_range)}
                   for plan in (spec.first_field, spec.second_field)],
        "axes": {name: list(values) for name, values in spec.axes.items()},
    }


def write_run_manifest(path, spec, results, *, workers: int,
                       runtime_seconds: float | None = None) -> None:
    """JSON record of what ran: spec echo, tool version, timing, outcome."""
    results = list(results)
    payload = {
        "tool": "mfbia",
        "version": __version__,
        "spec": _spec_payload(spec),
        "workers": workers,
        "cells": len(results),
        "failed_cells": sum(0 if r.ok else 1 for r in results),
        "runtime_seconds": runtime_seconds,
        "written_at_unix": time.time() if runtime_seconds is not None else None,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
