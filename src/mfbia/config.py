"""Run configuration: YAML schema, unit handling, and built-in defaults.

Configs are plain YAML with nested sections (see ``configs/`` for committed
examples).  Scalar values may carry a unit suffix, e.g. ``11 kPa`` or
``0.4 N``; everything is converted to strict SI at parse time.  Bare
numbers are taken as SI already.  A count, an id, ``grid``, ``workers``
and an axis ``num`` must be integral numbers: a string, even ``"3"``, is
refused.  This module owns the whole schema, the sweep's observation
plans (:class:`FieldSpec`) and axis names included, and checks every
value once, for the YAML file and the Python API alike.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .electromech import DomainError
from .inference import cdf_spaced_grid
from .models import build_model, registered_models
from .probabilistic import TruncatedNormalPrior


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


#: SI conversion factors for accepted unit suffixes.
UNIT_FACTORS = {
    "Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "GPa": 1e9,
    "m": 1.0, "mm": 1e-3, "cm": 1e-2, "um": 1e-6,
    "N": 1.0, "kN": 1e3, "mN": 1e-3,
    "V": 1.0, "kV": 1e3,
    "A": 1.0, "mA": 1e-3,
    "ohm.m": 1.0, "ohm*m": 1.0, "ohm m": 1.0, "Ohm.m": 1.0, "Ohm m": 1.0,
}

_INF_TOKENS = {"inf", ".inf", "infinity", "+inf"}


def parse_quantity(value, where: str = "value") -> float:
    """Parse a number, an infinity token, or a ``<number> <unit>`` string."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got a boolean")
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if isinstance(value, str):
        text = value.strip()
        if text.lower() in _INF_TOKENS:
            return math.inf
        try:
            return float(text)
        except ValueError:
            pass
        parts = text.split(None, 1)
        if len(parts) == 2:
            number, unit = parts
            unit = unit.strip()
            if unit in UNIT_FACTORS:
                try:
                    return float(number) * UNIT_FACTORS[unit]
                except ValueError:
                    raise ConfigError(
                        f"{where}: {number!r} is not a number") from None
            raise ConfigError(
                f"{where}: unknown unit {unit!r}; "
                f"accepted: {', '.join(sorted(UNIT_FACTORS))}")
    raise ConfigError(f"{where}: cannot parse {value!r} as a quantity")


def _quantity_list(values, where: str) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where}: expected a list")
    return [parse_quantity(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _axis_values(start, stop, num: int, spacing: str = "log",
                 integer: bool = False) -> tuple:
    """The points of a generated axis.  Integer axes round half to even,
    as ``np.round`` does, and keep each count once."""
    space = np.geomspace if spacing == "log" else np.linspace
    values = space(start, stop, num).tolist()
    if integer:
        return tuple(sorted({int(round(v)) for v in values}))
    return tuple(values)


def _integer(value, where: str) -> int:
    """``value`` as an int; a ConfigError naming ``where`` unless it is an
    integral, finite number (not a bool, and not a string)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if float(value).is_integer():
                return int(value)
        except OverflowError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


#: Axis names that set an observation plan; any other axis names a model
#: constant.  Cells iterate in this order, then the constants.
FIELD_AXES = ("n_obs1", "snr1", "n_obs2", "snr2")


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
        object.__setattr__(self, "count", _integer(self.count, "count"))
        if self.count < 0:
            raise ConfigError(f"count: must be >= 0, got {self.count}")
        if self.count > 0 and not 0 < self.snr < math.inf:
            raise ConfigError(f"snr: must be finite and > 0, got {self.snr}")
        if not self.coord_range[1] >= self.coord_range[0]:
            raise ConfigError("range: must be increasing")

    def coordinates(self) -> np.ndarray:
        return np.linspace(self.coord_range[0], self.coord_range[1],
                           self.count)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, truth, prior, observations, grid,
    and the sweep.  Construction checks every value, the sweep's too."""

    model: str
    constants: dict
    truth: tuple[float, ...]
    prior: TruncatedNormalPrior
    fields: tuple[FieldSpec, ...]
    grid_shape: tuple[int, ...]
    sweep: dict | None = None     # axis name -> values, in cell order
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        if self.model not in registered_models():
            raise ConfigError(
                f"model: unknown model {self.model!r}; "
                f"registered: {', '.join(registered_models())}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        ids = [f.field_id for f in self.fields]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"fields: duplicate field ids {ids}")
        if len(self.truth) != self.prior.dim:
            raise ConfigError(f"truth: {len(self.truth)} values for a "
                              f"{self.prior.dim}-parameter prior")
        for k, (value, lower, upper) in enumerate(
                zip(self.truth, self.prior.lower, self.prior.upper)):
            if not lower <= value <= upper:
                raise ConfigError(
                    f"truth[{k}]: {value!r} lies outside the prior support "
                    f"[{lower:g}, {upper:g}]")
        try:
            cdf_spaced_grid(self.prior, self.grid_shape)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
        accepted = set(inspect.signature(type(build_model(self.model)))
                       .parameters)
        unknown = set(self.constants) - accepted
        if unknown:
            raise ConfigError(
                f"constants: unknown names {sorted(unknown, key=str)}; "
                f"model {self.model!r} accepts {sorted(accepted)}")
        try:
            model = build_model(self.model, self.constants)
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from None
        try:
            model.check_params(self.truth)
        except DomainError as exc:
            names = model.param_names
            key = (f"truth[{names.index(exc.name)}]" if exc.name in names
                   else f"constants.{exc.name}")
            raise ConfigError(f"{key}: {exc}") from None
        for i, spec in enumerate(self.fields):
            if spec.field_id not in model.field_ids:
                raise ConfigError(
                    f"fields[{i}].id: model {self.model!r} has fields "
                    f"{list(model.field_ids)}, got {spec.field_id}")
            try:
                model.check_coords(spec.coord_range)
            except DomainError as exc:
                raise ConfigError(f"fields[{i}].range: {exc}") from None
        if self.sweep is not None:
            object.__setattr__(self, "sweep", self._checked_sweep(accepted))

    def field_spec(self, field_id: int) -> FieldSpec:
        for spec in self.fields:
            if spec.field_id == field_id:
                return spec
        raise ConfigError(f"fields: no field {field_id} configured; the "
                          f"ids are {[f.field_id for f in self.fields]}")

    def sweep_plans(self) -> tuple[FieldSpec, FieldSpec]:
        """Fields 1 and 2 as a sweep observes them; without a configured
        field 2, field 2 makes no observations, on field 1's range."""
        first = self.field_spec(1)
        return first, next((f for f in self.fields if f.field_id == 2),
                           replace(first, field_id=2, count=0, snr=math.nan))

    def _checked_sweep(self, constant_names: set) -> dict:
        """The sweep's axes in cell order, ``n_obs`` values as ints and the
        others as quantities."""
        unknown = set(self.sweep) - constant_names - set(FIELD_AXES)
        if unknown:
            raise ConfigError(
                f"sweep: unknown keys {sorted(unknown, key=str)}; an axis "
                f"is one of {', '.join(FIELD_AXES)} or a constant of "
                f"model {self.model!r}: {', '.join(sorted(constant_names))}")
        varied = [name for name in self.sweep if name not in FIELD_AXES]
        axes = {}
        for name in [n for n in FIELD_AXES if n in self.sweep] + varied:
            parse = _integer if name.startswith("n_obs") else parse_quantity
            values = tuple(parse(v, f"sweep.{name}[{i}]")
                           for i, v in enumerate(self.sweep[name]))
            if not values or not all(np.diff(values) > 0):
                raise ConfigError(f"sweep.{name}: axis must be non-empty and "
                                  f"strictly increasing, got {list(values)}")
            axes[name] = values
        for values in itertools.product(*(axes[n] for n in varied)):
            constants = {**self.constants, **dict(zip(varied, values))}
            try:
                build_model(self.model, constants).check_params(self.truth)
            except ValueError as exc:
                name = (exc.name if isinstance(exc, DomainError)
                        else "/".join(varied))
                raise ConfigError(f"sweep.{name}: {exc}") from None
        for k, plan in enumerate(self.sweep_plans(), 1):
            counts = axes.get(f"n_obs{k}", (plan.count,))
            if min(counts) < 1:
                raise ConfigError(f"sweep.n_obs{k}: observation counts must "
                                  f"be >= 1, got {min(counts)}")
            for snr in axes.get(f"snr{k}", (plan.snr,)):
                if not 0 < snr < math.inf:
                    raise ConfigError(f"sweep.snr{k}: must be finite and > 0, "
                                      f"got {snr}")
        return axes


def _parse_axis(section, where: str) -> tuple:
    """A list's values as they are, or the points of a start/stop/num
    mapping; :class:`RunConfig` converts and checks them."""
    if isinstance(section, (list, tuple)):
        return tuple(section)
    if isinstance(section, dict):
        known = {"start", "stop", "num", "spacing", "integer"}
        unknown = set(section) - known
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("start", "stop", "num"):
            if key not in section:
                raise ConfigError(f"{where}.{key}: missing")
        spacing = section.get("spacing", "log")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{where}.spacing: expected linear or log, "
                              f"got {spacing!r}")
        start = parse_quantity(section["start"], f"{where}.start")
        stop = parse_quantity(section["stop"], f"{where}.stop")
        for key, value in (("start", start), ("stop", stop)):
            if not math.isfinite(value):
                raise ConfigError(f"{where}.{key}: must be finite, "
                                  f"got {value}")
        num = _integer(section["num"], f"{where}.num")
        integer = section.get("integer", False)
        if not isinstance(integer, bool):
            raise ConfigError(f"{where}.integer: expected true or false, "
                              f"got {integer!r}")
        try:
            return _axis_values(start, stop, num, spacing, integer)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: expected a list or start/stop/num mapping")


def _parse_sweep(section) -> dict:
    if not isinstance(section, dict) or not section:
        raise ConfigError("sweep: expected a mapping of one or more axes")
    return {name: _parse_axis(axis, f"sweep.{name}")
            for name, axis in section.items()}


def _parse_prior(section) -> TruncatedNormalPrior:
    if not isinstance(section, dict):
        raise ConfigError("prior: expected a mapping")
    for key in ("mean", "sd", "lower", "upper"):
        if key not in section:
            raise ConfigError(f"prior.{key}: missing")
    mean = _quantity_list(section["mean"], "prior.mean")
    sd = _quantity_list(section["sd"], "prior.sd")
    lower = _quantity_list(section["lower"], "prior.lower")
    upper = _quantity_list(section["upper"], "prior.upper")
    for key, values in (("mean", mean), ("sd", sd)):
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"prior.{key}: must be finite, got {values}")
    if not all(value > 0 for value in sd):
        raise ConfigError(f"prior.sd: must be > 0, got {sd}")
    try:
        return TruncatedNormalPrior(mean=np.array(mean),
                                    variance=np.array(sd) ** 2,
                                    lower=np.array(lower),
                                    upper=np.array(upper))
    except ValueError as exc:
        raise ConfigError(f"prior: {exc}") from exc


def _parse_field(section, index: int) -> FieldSpec:
    where = f"fields[{index}]"
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    for key in ("id", "count", "snr"):
        if key not in section:
            raise ConfigError(f"{where}.{key}: missing")
    field_id = _integer(section["id"], f"{where}.id")
    snr = parse_quantity(section["snr"], f"{where}.snr")
    coord_range = _quantity_list(section.get("range", [0.0, 1.0]),
                                 f"{where}.range")
    if len(coord_range) != 2:
        raise ConfigError(f"{where}.range: expected [low, high], got "
                          f"{len(coord_range)} values")
    try:
        return FieldSpec(field_id=field_id, count=section["count"], snr=snr,
                         coord_range=tuple(coord_range))
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    known = {"model", "constants", "truth", "prior", "fields", "grid",
             "sweep", "output_dir", "workers"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    for key in ("model", "truth", "prior", "fields"):
        if key not in data:
            raise ConfigError(f"{key}: missing")

    constants = data.get("constants") or {}
    if not isinstance(constants, dict):
        raise ConfigError("constants: expected a mapping")
    constants = {name: parse_quantity(value, f"constants.{name}")
                 for name, value in constants.items()}
    truth = tuple(_quantity_list(data["truth"], "truth"))
    prior = _parse_prior(data["prior"])
    if not isinstance(data["fields"], list):
        raise ConfigError("fields: expected a list")
    fields = tuple(_parse_field(f, i) for i, f in enumerate(data["fields"]))
    grid = data.get("grid", [100] * prior.dim)
    if not isinstance(grid, list):
        grid = [grid] * prior.dim
    grid_shape = tuple(_integer(n, f"grid[{i}]") for i, n in enumerate(grid))
    sweep = data.get("sweep")
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")

    try:
        return RunConfig(model=data["model"], constants=constants,
                         truth=truth, prior=prior, fields=fields,
                         grid_shape=grid_shape,
                         sweep=None if sweep is None else _parse_sweep(sweep),
                         output_dir=output_dir,
                         workers=_integer(data.get("workers", 1), "workers"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    # imported here: only a command that reads a config file needs a parser
    import yaml

    with open(path) as handle:
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
        except ValueError as exc:
            # a non-UTF-8 file, or an integer past Python's digit limit
            raise ConfigError(f"{path}: {exc}") from None
    try:
        return parse_config(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def default_config(full: bool = False) -> RunConfig:
    """Built-in tensile-test configuration: 16 displacement observations at
    SNR 50 plus 2 current observations at SNR 1.2e4, forces on [0, 0.4] N.
    Its sweep has 10x6 ``n_obs2`` x ``snr2`` points, or 50x12 when ``full``
    (``reproduce fig10 --full``)."""
    return RunConfig(
        model="electromech",
        constants={},
        truth=(11e3, 0.35),
        prior=TruncatedNormalPrior(mean=np.array([10e3, 0.3]),
                                   variance=np.array([2e3, 0.15]) ** 2,
                                   lower=np.array([0.0, 0.0]),
                                   upper=np.array([np.inf, 0.5])),
        fields=(FieldSpec(field_id=1, count=16, snr=50.0,
                          coord_range=(0.0, 0.4)),
                FieldSpec(field_id=2, count=2, snr=1.2e4,
                          coord_range=(0.0, 0.4))),
        grid_shape=(100, 100),
        sweep={"n_obs2": _axis_values(2, 256, 50 if full else 10,
                                      integer=True),
               "snr2": _axis_values(80.0, 1.2e4, 12 if full else 6)},
        output_dir="out",
        workers=1)


def high_noise_second_field_config() -> RunConfig:
    """Variant with many noisy second-field observations (256 at SNR 80)."""
    base = default_config()
    return replace(base, fields=(
        base.field_spec(1),
        FieldSpec(field_id=2, count=256, snr=80.0, coord_range=(0.0, 0.4))))
