"""Command-line surface: synthesize, posterior, riig, sweep, reproduce.

Every command is deterministic: identical configuration yields byte-identical
artifacts.  Posterior sidecars embed content hashes of the prior and of the
first-field observations, and the model constants; ``riig`` refuses to
compare runs whose hashes, model constants or grid axes differ, since a
relative gain between incompatible analyses is meaningless.

Exit codes: 0 success, 1 runtime or model error, 2 usage, configuration, or
provenance error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

# before numpy loads: mfbia runs its parallel work on its own threads and
# processes, and an idle OpenBLAS pool would only spin beside them
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    default_config,
    high_noise_second_field_config,
    load_config,
)
from .electromech import DomainError
from .inference import (
    PriorGrid,
    cdf_spaced_grid,
    evaluate_posterior,
    information_gain,
    posterior_to_csv,
    posterior_to_json,
    riig,
)
from .models import build_model
from .probabilistic import (
    OBSERVATION_CSV_HEADER,
    FieldObservations,
    ObservationFileError,
    ReductionPool,
    log_likelihood,
    observations_from_csv,
    observations_to_csv,
    synthesize_observations,
    write_csv,
)
from .sweep import (
    export_sweep_csv,
    field_moments,
    run_riig_sweep,
    write_run_manifest,
)

#: Reference values the reproduction bundles compare against.
REFERENCE_RIIG = {
    "fig9_middle": 1.23,
    "fig9_right": 1.22,
    "fig10_point3": 3.65,
}

#: Columns of a reproduction bundle's ``summary.csv``.
SUMMARY_CSV_HEADER = ("case", "n_obs2", "snr2", "ig_single", "ig_multi",
                      "riig", "reference_riig")


#: Values of ``--log-level``; the package logger's threshold.
LOG_LEVELS = ("debug", "info", "warning", "error")


class ProvenanceError(ValueError):
    """Two runs are not comparable (different prior, first-field data,
    model constants or grid)."""


def _hash_payload(payload) -> str:
    # imported here: hashlib loads libcrypto, which only provenance needs
    import hashlib

    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _prior_hash(prior) -> str:
    return _hash_payload({
        "mean": prior.mean.tolist(),
        "variance": prior.variance.tolist(),
        "lower": prior.lower.tolist(),
        "upper": [str(v) for v in prior.upper.tolist()],
    })


def _observations_hash(obs: FieldObservations | None) -> str:
    if obs is None:
        return _hash_payload(None)
    return _hash_payload({
        "field_id": obs.field_id,
        "coordinates": obs.coordinates.tolist(),
        "values": obs.values.tolist(),
        "sigma2": obs.noise_variance,
    })


def _posterior_bundle(model, prior_grid: PriorGrid, terms, observations,
                      out_dir: Path, tag: str):
    """Evaluate one posterior on ``prior_grid`` from the likelihood
    ``terms`` of ``observations`` (see
    :func:`~mfbia.probabilistic.log_likelihood`) and write its CSV and
    JSON; the sidecar's provenance names the grid's prior, the first-field
    data, the model and its constants."""
    grid = evaluate_posterior(log_likelihood(terms), prior_grid)
    gain = information_gain(grid)
    csv_path = out_dir / f"posterior_{tag}.csv"
    json_path = out_dir / f"posterior_{tag}.json"
    posterior_to_csv(grid, csv_path)
    first = next((o for o in observations if o.field_id == 1), None)
    posterior_to_json(
        grid, json_path, information_gain=gain,
        provenance={"prior_hash": _prior_hash(prior_grid.prior),
                    "first_field_hash": _observations_hash(first),
                    "model": model.name,
                    "model_constants": model.constants},
        extra={"fields": sorted(o.field_id for o in observations),
               "grid_shape": [len(axis) for axis in prior_grid]})
    return gain, json_path


def _load_run_json(path) -> dict:
    """The posterior sidecar at ``path``; :class:`ProvenanceError` names
    the file, and the key at fault, when it is not one."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ProvenanceError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(data, dict):
        raise ProvenanceError(f"{path}: expected a JSON object")
    gain = data.get("information_gain")
    if type(gain) not in (int, float) or not math.isfinite(gain):
        raise ProvenanceError(f"{path}: information_gain must be a finite "
                              f"number, got {gain!r}")
    provenance = data.get("provenance")
    if not isinstance(provenance, dict):
        raise ProvenanceError(f"{path}: provenance must be a mapping, got "
                              f"{provenance!r}")
    for key in ("prior_hash", "first_field_hash"):
        if not isinstance(provenance.get(key), str):
            raise ProvenanceError(f"{path}: provenance.{key} must be a "
                                  f"string, got {provenance.get(key)!r}")
    if not isinstance(provenance.get("model_constants"), dict):
        raise ProvenanceError(f"{path}: provenance.model_constants must be "
                              f"a mapping, got "
                              f"{provenance.get('model_constants')!r}")
    if not isinstance(data.get("axes"), list):
        raise ProvenanceError(f"{path}: axes must be a list, got "
                              f"{data.get('axes')!r}")
    return data


def cmd_synthesize(args) -> int:
    config = _resolve_config(args)
    model = build_model(config.model, config.constants)
    out_dir = Path(args.out or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in config.fields:
        path = out_dir / f"observations_field{spec.field_id}.csv"
        if spec.count == 0:
            write_csv(path, OBSERVATION_CSV_HEADER, [])
        else:
            observations_to_csv(synthesize_observations(
                model, np.array(config.truth), spec.field_id,
                spec.coordinates(), spec.snr), path)
        print(path)
    return 0


def cmd_posterior(args) -> int:
    config = _resolve_config(args)
    model = build_model(config.model, config.constants)
    observations = []
    sources = {}   # field id -> the --obs file that holds it
    for path in args.obs or []:
        try:
            obs = observations_from_csv(path)
        except ObservationFileError as exc:
            raise ConfigError(f"--obs {exc}") from None
        if obs is not None:
            if obs.field_id not in model.field_ids:
                raise ConfigError(
                    f"--obs {path}: model {config.model!r} has fields "
                    f"{list(model.field_ids)}, got field {obs.field_id}")
            if obs.field_id in sources:
                raise ConfigError(
                    f"--obs {sources[obs.field_id]} and --obs {path} both "
                    f"hold field {obs.field_id}; give one file per field")
            try:
                model.check_coords(obs.coordinates)
            except DomainError as exc:
                raise ConfigError(f"--obs {path}: {exc}") from None
            sources[obs.field_id] = path
            observations.append(obs)
    grid_shape = (config.grid_shape if args.grid is None
                  else _parse_grid(args.grid))
    try:   # the config's own grid was checked with the config
        axes = cdf_spaced_grid(config.prior, grid_shape)
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from None
    out_dir = Path(args.out or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "f" + ("-".join(str(f) for f in sorted(sources)) or "none")
    prior_grid = PriorGrid(config.prior, axes, model.param_names)
    with ReductionPool() as pool:
        reductions = [pool.submit(model, prior_grid.nodes, o.field_id,
                                  o.coordinates, o.values)
                      for o in observations]
        terms = [(reduction.result(), o.noise_variance)
                 for reduction, o in zip(reductions, observations)]
    gain, json_path = _posterior_bundle(model, prior_grid, terms,
                                        observations, out_dir, tag)
    print(f"information gain: {gain!r} nats")
    print(json_path)
    return 0


def cmd_riig(args) -> int:
    single = _load_run_json(args.single_run)
    multi = _load_run_json(args.multi_run)
    for key in ("prior_hash", "first_field_hash", "model_constants"):
        if single["provenance"][key] != multi["provenance"][key]:
            raise ProvenanceError(
                f"{key} differs between {args.single_run} and "
                f"{args.multi_run}; the runs are not comparable")
    if single["axes"] != multi["axes"]:
        raise ProvenanceError(
            f"{args.single_run} and {args.multi_run} are posteriors on "
            f"different grids; their gains are not comparable")
    ig_single = float(single["information_gain"])
    ig_multi = float(multi["information_gain"])
    value = riig(ig_single, ig_multi)
    print(f"ig_single = {ig_single!r} nats")
    print(f"ig_multi  = {ig_multi!r} nats")
    print(f"riig      = {value!r}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "riig.json"
        with open(path, "w") as handle:
            json.dump({"ig_single": ig_single, "ig_multi": ig_multi,
                       "riig": value,
                       "inputs": [str(args.single_run), str(args.multi_run)]},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(path)
    return 0


class _Stderr(logging.StreamHandler):
    """The command's log handler on stderr, which also draws a sweep's
    progress line.  A log record, or an error printed after
    :meth:`end_line`, starts a line of its own while that line is open."""

    def __init__(self):
        super().__init__(sys.stderr)
        self.line_open = False

    def end_line(self) -> None:
        if self.line_open:
            self.line_open = False
            print(file=self.stream)

    def emit(self, record):
        self.end_line()
        super().emit(record)

    def progress(self, label: str):
        """Progress callback of a sweep: ``<label>: <done>/<total> cells``,
        redrawn in place until the last cell ends the line."""
        def callback(done: int, total: int):
            self.line_open = done < total
            print(f"\r{label}: {done}/{total} cells",
                  end="" if self.line_open else "\n", file=self.stream)
        return callback


def _run_sweep(config: RunConfig, out_dir: Path, workers: int, progress):
    """Run the sweep of ``config`` and write ``sweep.csv`` and
    ``sweep_manifest.json``; returns the results and the sweep's seconds."""
    started = time.perf_counter()
    results = run_riig_sweep(config, workers=workers, progress=progress)
    runtime = time.perf_counter() - started
    export_sweep_csv(results, out_dir / "sweep.csv")
    write_run_manifest(out_dir / "sweep_manifest.json", config, results,
                       workers=workers, runtime_seconds=runtime)
    return results, runtime


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    if config.sweep is None:   # only a config file can lack one
        raise ConfigError(f"{args.config}: this configuration has no sweep "
                          f"section")
    workers = args.workers or config.workers
    out_dir = Path(args.out or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results, runtime = _run_sweep(config, out_dir, workers,
                                  args.stderr.progress("sweep"))
    failed = [r for r in results if not r.ok]
    print(f"{len(results)} cells, {len(failed)} failed, "
          f"{runtime:.1f} s with {workers} worker(s)")
    print(out_dir / "sweep.csv")
    return 0


def cmd_reproduce(args) -> int:
    if args.figure == "fig9" and (args.full or args.workers):
        flag = "--full" if args.full else "--workers"
        raise ConfigError(f"{flag}: applies to reproduce fig10 only")
    out_dir = Path(args.out) / args.figure
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.figure == "fig9":
        return _reproduce_fig9(out_dir)
    return _reproduce_fig10(out_dir, args.stderr.progress("fig10"),
                            full=args.full,
                            workers=args.workers or 1)


def _reproduce_fig9(out_dir: Path) -> int:
    config = default_config()
    model = build_model(config.model, config.constants)
    prior_grid = PriorGrid(config.prior,
                           cdf_spaced_grid(config.prior, config.grid_shape),
                           model.param_names)

    def analysis(source: RunConfig, field_id: int, name: str):
        obs, _, reduction = field_moments(model, source.truth,
                                          source.field_spec(field_id),
                                          prior_grid.nodes, pool)
        observations_to_csv(obs, out_dir / f"observations_{name}.csv")
        return obs, reduction

    # every field's reduction is queued before the first posterior
    with ReductionPool() as pool:
        (obs1, field1), *cases = [
            analysis(config, 1, "field1"),
            analysis(config, 2, "field2_middle"),
            analysis(high_noise_second_field_config(), 2, "field2_right")]
        term1 = (field1.result(), obs1.noise_variance)
        ig_single, _ = _posterior_bundle(model, prior_grid, [term1], [obs1],
                                         out_dir, "single")
        print(f"single-field information gain: {ig_single:.4f} nats")
        rows = []
        for case, (obs2, field2) in zip(("middle", "right"), cases):
            term2 = (field2.result(), obs2.noise_variance)
            ig_multi, _ = _posterior_bundle(model, prior_grid,
                                            [term1, term2], [obs1, obs2],
                                            out_dir, f"multi_{case}")
            value = riig(ig_single, ig_multi)
            reference = REFERENCE_RIIG[f"fig9_{case}"]
            rows.append([case, len(obs2), obs2.snr, repr(ig_single),
                         repr(ig_multi), repr(value), reference])
            print(f"{case + ':':7} riig = {value:.4f} "
                  f"(reference {reference})")
    write_csv(out_dir / "summary.csv", SUMMARY_CSV_HEADER, rows)
    print(out_dir / "summary.csv")
    return 0


def _reproduce_fig10(out_dir: Path, progress, full: bool, workers: int) -> int:
    config = default_config(full=full)
    results, _ = _run_sweep(config, out_dir, workers, progress)

    by_cell = {(r.point["n_obs2"], r.point["snr2"]): r for r in results}
    counts, snrs = config.sweep["n_obs2"], config.sweep["snr2"]
    anchors = [
        ("point1", counts[0], snrs[-1], REFERENCE_RIIG["fig9_middle"]),
        ("point2", counts[-1], snrs[0], REFERENCE_RIIG["fig9_right"]),
        ("point3", counts[-1], snrs[-1], REFERENCE_RIIG["fig10_point3"]),
    ]
    rows = []
    for name, n_obs2, snr2, reference in anchors:
        res = by_cell.get((n_obs2, snr2))
        if res is None or not res.ok:
            rows.append([name, n_obs2, repr(snr2), "", "", "", reference])
            continue
        rows.append([name, n_obs2, repr(snr2), repr(res.ig_single),
                     repr(res.ig_multi), repr(res.riig), reference])
        print(f"{name}: n_obs2={n_obs2} snr2={snr2:g} "
              f"riig={res.riig:.4f} (reference {reference})")
    write_csv(out_dir / "summary.csv", SUMMARY_CSV_HEADER, rows)
    print(out_dir / "sweep.csv")
    return 0


def _parse_grid(text: str) -> tuple[int, ...]:
    """The comma-separated point counts of ``--grid``, as ints;
    :func:`~mfbia.inference.cdf_spaced_grid` checks how many and how
    large."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"--grid: expected comma-separated integers, "
                          f"got {text!r}") from None


def _workers(text: str) -> int:
    """``--workers`` value: an integer >= 1 (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbia",
        description="Multi-field Bayesian inverse analysis pipeline")
    parser.add_argument("--version", action="version",
                        version=f"mfbia {__version__}")
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="least severe log message written to stderr "
                             "(default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize",
                       help="generate observation CSVs from the truth model")
    p.add_argument("--config", help="YAML run configuration "
                                    "(defaults to the built-in setup)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("posterior",
                       help="evaluate a grid posterior from observation files")
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--obs", action="append",
                   help="observation CSV (repeatable)")
    p.add_argument("--grid", help="grid resolution N or N,N")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("riig",
                       help="relative increase in information gain of two runs")
    p.add_argument("single_run", help="posterior JSON of the single-field run")
    p.add_argument("multi_run", help="posterior JSON of the multi-field run")
    p.add_argument("--out", help="directory for riig.json")
    p.set_defaults(func=cmd_riig)

    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=_workers, help="parallel worker count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce",
                       help="emit the full artifact bundle for a figure")
    p.add_argument("figure", choices=("fig9", "fig10"))
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--full", action="store_true",
                   help="fig10 at full 50x12 resolution")
    p.add_argument("--workers", type=_workers, help="parallel worker count")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the package's one log handler, for this command only: a library
    # caller's logging is left as it was found
    package_logger = logging.getLogger(__package__)
    args.stderr = handler = _Stderr()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                           "%(message)s"))
    previous_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (ConfigError, ProvenanceError) as exc:
        handler.end_line()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError,
            MemoryError) as exc:
        handler.end_line()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
