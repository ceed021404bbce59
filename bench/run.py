#!/usr/bin/env python3
"""Benchmark of the mfbia CLI: end-to-end timings and a layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src`` directory, never from an installed copy.  Each timed
operation is one mfbia CLI command in a fresh interpreter, started one at a
time from this script (a closed loop with one client).  See
``bench/README.md`` for the workloads, the metrics and how to check that
the benchmark is steady.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it hold a JSON report: the environment, every sample, the
artifact hashes and the inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: fig10 anchor RIIG values of the seed code; later versions must match them
#: within RIIG_RTOL.  Points 1 and 2 are the fig9 middle and right cases.
SEED_RIIG = {
    "point1": 1.2676646898711186,
    "point2": 1.1694627949747924,
    "point3": 3.4466798001957524,
}
RIIG_RTOL = 1e-9
DENSITY_ATOL = 1e-9

SWEEP_WORKERS = 2         # coupling-dense is defined for nproc = 2
SETUP_SAMPLES = 5         # import-only processes make up the shortfall
MIN_INVOCATIONS = 2       # timed CLI processes per run, at least
RUN_DEADLINE_S = 150.0    # start no process that would end after this
PROCESS_TIMEOUT_S = 120.0
RSS_SAMPLE_S = 0.02
TREE_SCAN_EVERY = 5       # look for new worker processes every 5th sample
EXCLUDED_ARTIFACTS = {"sweep_manifest.json"}   # embeds run time and date


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# --------------------------------------------------------------- workloads

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _close(label: str, value: float, expected: float) -> list[str]:
    if abs(value - expected) <= RIIG_RTOL * abs(expected):
        return []
    return [f"{label}: {value!r} differs from the seed value {expected!r} "
            f"by more than {RIIG_RTOL:g} relative"]


def _failed_sweep_cells(path: Path, cells: int) -> tuple[int, list[str]]:
    rows = _rows(path)
    failed = sum(1 for row in rows if row["status"] != "ok"
                 or not math.isfinite(float(row["riig"] or "nan")))
    problems = [] if len(rows) == cells else [
        f"{path.name}: {len(rows)} cells, expected {cells}"]
    if failed:
        problems.append(f"{path.name}: {failed} failed or non-finite cells")
    return failed, problems


def _trapezoid(values, axis_points):
    x = np.asarray(axis_points, dtype=float)
    return 0.5 * ((values[..., 1:] + values[..., :-1]) * np.diff(x)).sum(-1)


def _check_fig10(out: Path) -> tuple[int, list[str]]:
    failed, problems = _failed_sweep_cells(out / "fig10" / "sweep.csv", 60)
    rows = {row["case"]: row for row in _rows(out / "fig10" / "summary.csv")}
    for case, expected in SEED_RIIG.items():
        problems += _close(f"fig10 {case} riig", float(rows[case]["riig"]),
                           expected)
    return failed, problems


def _check_coupling(out: Path) -> tuple[int, list[str]]:
    return _failed_sweep_cells(out / "sweep.csv", 512)


def _check_posterior(out: Path) -> tuple[int, list[str]]:
    (sidecar,) = out.glob("posterior_*.json")
    axes = json.loads(sidecar.read_text())["axes"]
    density = np.array([float(row["density"])
                        for row in _rows(sidecar.with_suffix(".csv"))])
    shape = tuple(len(axis) for axis in axes)
    if shape != (200, 200):
        return 1, [f"{sidecar.name}: grid {shape}, expected (200, 200)"]
    integral = density.reshape(shape)
    for axis in reversed(axes):
        integral = _trapezoid(integral, axis)
    if abs(float(integral) - 1.0) > DENSITY_ATOL:
        return 1, [f"{sidecar.name}: density integrates to {float(integral)!r}"]
    return 0, []


@dataclass(frozen=True)
class Workload:
    name: str
    operations: int          # sweep cells, or 1 for a single command
    check: object            # out_dir -> (failed operations, problems)
    required_spans: tuple    # spans the trace must see at least once

    def cli_args(self, inputs: dict, out: Path) -> list[str]:
        if self.name == "fig10":
            return ["reproduce", "fig10", "--out", str(out)]
        if self.name == "coupling-dense":
            return ["sweep", "--config", inputs["config"],
                    "--workers", str(SWEEP_WORKERS), "--out", str(out)]
        args = ["posterior", "--config", inputs["config"]]
        for path in inputs["observations"]:
            args += ["--obs", path]
        return args + ["--grid", "200", "--out", str(out)]


_FORWARD = ("models.outputs", "probabilistic.loglik", "inference.posterior",
            "inference.ig")
_ELECTROMECH = ("electromech.displacement", "electromech.current")

WORKLOADS = {w.name: w for w in (
    Workload("fig10", 60, _check_fig10,
             _FORWARD + _ELECTROMECH + ("probabilistic.synthesize",
                                        "sweep.run")),
    Workload("coupling-dense", 512, _check_coupling,
             _FORWARD + ("probabilistic.synthesize", "sweep.run")),
    Workload("posterior-fine", 1, _check_posterior,
             _FORWARD + _ELECTROMECH + ("probabilistic.obs_read",
                                        "inference.posterior_csv")),
)}


# ------------------------------------------------------------- processes

class TreeRss(threading.Thread):
    """Samples the summed resident set size of a process and its children."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pids = {pid}
        self.peak = 0
        self._stop_event = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _children(self) -> set[int]:
        found = set()
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid in self.pids:
                found.add(int(entry))
        return found

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                return int(handle.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def run(self):
        tick = 0
        while not self._stop_event.wait(RSS_SAMPLE_S):
            if tick % TREE_SCAN_EVERY == 0:
                self.pids |= self._children()
            self.peak = max(self.peak, sum(self._rss(p) for p in self.pids))
            tick += 1

    def kill(self):
        for pid in list(self.pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def stop(self):
        self._stop_event.set()
        self.join()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_process(cmd: list[str], directory: Path) -> dict:
    """Run one child to completion; wall time, CPU time and peak RSS."""
    with open(directory / "stdout.txt", "w") as out, \
            open(directory / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=directory, env=_child_env(),
                                stdout=out, stderr=err)
        sampler = TreeRss(proc.pid)
        sampler.start()
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, sampler.kill)
        watchdog.start()
        try:
            # wait4 reports the child's CPU time including every descendant
            # it reaped, so pool workers are counted
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            sampler.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            sampler.stop()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = max(sampler.peak, usage.ru_maxrss * 1024)
    return {"exit_code": proc.returncode, "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": peak / 2**20}


def _tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])


def _hash_tree(directory: Path) -> dict[str, str]:
    return {str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name not in EXCLUDED_ARTIFACTS}


class BenchRun:
    """One benchmark run: the work directory, samples and problems."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.count = 0
        self.inputs: dict = {}
        self.artifacts: dict[str, str] | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _new_dir(self, kind: str) -> Path:
        self.count += 1
        directory = self.workdir / f"{self.count:03d}-{kind}"
        directory.mkdir()
        return directory

    def set_up(self):
        directory = self._new_dir("setup")
        cmd = [sys.executable, str(BENCH / "make_inputs.py"),
               self.workload.name, str(self.seed), str(self.workdir)]
        if _run_process(cmd, directory)["exit_code"] != 0:
            raise BenchError(f"input set-up failed: "
                             f"{_tail(directory / 'stderr.txt')}")
        self.inputs = json.loads((self.workdir / "inputs.json").read_text())

    def invoke(self, *, probe: bool = False, trace: bool = False) -> dict:
        """One CLI process; checks its outputs unless it is a probe."""
        directory = self._new_dir("probe" if probe else
                                  "trace" if trace else "timed")
        out = directory / "out"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(SRC),
               str(directory / "child.json")]
        if probe:
            cmd.append("--probe")
        if trace:
            cmd += ["--trace", str(directory / "trace.json")]
        cmd += ["--"] + self.workload.cli_args(self.inputs, out)
        sample = _run_process(cmd, directory)
        child_path = directory / "child.json"
        if child_path.exists():
            sample.update(json.loads(child_path.read_text()))
        if trace and (directory / "trace.json").exists():
            sample["trace"] = json.loads(
                (directory / "trace.json").read_text())
        if probe:
            if sample["exit_code"] != 0:
                raise BenchError(f"import of mfbia.cli failed: "
                                 f"{_tail(directory / 'stderr.txt')}")
        else:
            self._check(sample, directory, out)
        shutil.rmtree(directory)
        return sample

    def _check(self, sample: dict, directory: Path, out: Path):
        operations = self.workload.operations
        self.attempted += operations
        if sample["exit_code"] != 0 or "setup_s" not in sample:
            self.failed += operations
            self.problems.append(f"exit code {sample['exit_code']}: "
                                 f"{_tail(directory / 'stderr.txt')}")
            return
        try:
            failed, problems = self.workload.check(out)
        except (OSError, KeyError, ValueError) as exc:
            failed, problems = operations, [f"unreadable output: {exc!r}"]
        artifacts = _hash_tree(out)
        if self.artifacts is None:
            self.artifacts = artifacts
        elif artifacts != self.artifacts:
            problems.append("artifacts differ between identical runs")
        if problems:
            failed = operations
        sample["failed"] = failed
        self.failed += failed
        self.problems += problems


# --------------------------------------------------------------- metrics

def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _keep_going(started: float, run_start: float, walls: list[float],
                minimum: int, seconds: float) -> bool:
    """Start another process if it is expected to end within ``seconds``."""
    now = time.perf_counter()
    expected = statistics.median(walls)
    if now - run_start + expected > RUN_DEADLINE_S:
        return False
    return len(walls) < minimum or now - started + expected <= seconds


def measure_end_to_end(bench: BenchRun, seconds: float, run_start: float):
    timed: list[dict] = []
    started = time.perf_counter()
    while True:
        timed.append(bench.invoke())
        if not _keep_going(started, run_start, [s["wall_s"] for s in timed],
                           MIN_INVOCATIONS, seconds):
            break
    setup = [s["setup_s"] for s in timed if "setup_s" in s]
    probes = [bench.invoke(probe=True)
              for _ in range(SETUP_SAMPLES - len(setup))]
    setup += [s["setup_s"] for s in probes]
    metrics = {
        "wall_s": (_median(timed, "wall_s"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(s.get("run_s", 0.0) for s in timed), "s"),
        "cpu_s": (_median(timed, "cpu_s"), "s"),
        "peak_rss_mb": (_median(timed, "peak_rss_mb"), "MB"),
    }
    samples = {"setup_probes": [s["setup_s"] for s in probes],
               "invocations": timed}
    return metrics, samples


#: Per-layer metrics that are counts of work and must repeat exactly.
COUNT_METRICS = (
    "cli.modules_loaded", "models.outputs_calls", "models.outputs_evals",
    "models.outputs_distinct", "electromech.solves",
    "probabilistic.loglik_calls", "probabilistic.synthesize_calls",
    "probabilistic.obs_bytes", "inference.posterior_calls",
    "inference.grid_nodes", "inference.ig_calls",
    "inference.posterior_csv_bytes", "sweep.cells", "sweep.failed_cells",
    "sweep.dispatch_bytes")


def _layer_metrics(sample: dict) -> dict[str, tuple[float, str]]:
    trace = sample["trace"]
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    forward_calls = calls("models.outputs")
    distinct = trace["forward_distinct"]
    return {
        "cli.modules_loaded": (sample["modules_loaded"], "count"),
        "models.outputs_calls": (forward_calls, "count"),
        "models.outputs_evals": (counts["models.outputs_evals"], "count"),
        "models.outputs_distinct": (distinct, "count"),
        "models.repeat_share": (
            1.0 - distinct / forward_calls if forward_calls else 0.0, "ratio"),
        "models.outputs_s": (total("models.outputs"), "s"),
        "electromech.displacement_s": (total("electromech.displacement"), "s"),
        "electromech.solves": (counts["electromech.solves"], "count"),
        "electromech.solves_per_s": (
            rate(counts["electromech.solves"],
                 total("electromech.displacement")), "1/s"),
        "electromech.current_s": (total("electromech.current"), "s"),
        "probabilistic.loglik_calls": (calls("probabilistic.loglik"), "count"),
        "probabilistic.loglik_self_s": (own("probabilistic.loglik"), "s"),
        "probabilistic.synthesize_calls": (
            calls("probabilistic.synthesize"), "count"),
        "probabilistic.synthesize_s": (total("probabilistic.synthesize"), "s"),
        "probabilistic.obs_read_s": (total("probabilistic.obs_read"), "s"),
        "probabilistic.obs_write_s": (total("probabilistic.obs_write"), "s"),
        "probabilistic.obs_bytes": (counts["probabilistic.obs_bytes"],
                                    "bytes"),
        "inference.posterior_calls": (calls("inference.posterior"), "count"),
        "inference.posterior_self_s": (own("inference.posterior"), "s"),
        "inference.grid_nodes": (counts["inference.grid_nodes"], "count"),
        "inference.ig_calls": (calls("inference.ig"), "count"),
        "inference.ig_s": (total("inference.ig"), "s"),
        "inference.posterior_csv_s": (total("inference.posterior_csv"), "s"),
        "inference.posterior_csv_bytes": (
            counts["inference.posterior_csv_bytes"], "bytes"),
        "sweep.cells": (counts["sweep.cells"], "count"),
        "sweep.failed_cells": (counts["sweep.failed_cells"], "count"),
        "sweep.run_s": (total("sweep.run"), "s"),
        "sweep.cells_per_s": (rate(counts["sweep.cells"], total("sweep.run")),
                              "1/s"),
        "sweep.dispatch_bytes": (counts["sweep.dispatch_bytes"], "bytes"),
        "sweep.parent_self_s": (trace["sweep_parent_self_s"], "s"),
    }


def measure_layers(bench: BenchRun, seconds: float, run_start: float):
    """Alternate untraced and traced processes; per-layer medians."""
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while True:
        plain.append(bench.invoke())
        traced.append(bench.invoke(trace=True))
        pair_walls = [a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced)]
        if not _keep_going(started, run_start, pair_walls, 1, seconds):
            break
    if any("trace" not in s for s in traced):
        raise BenchError("a traced process wrote no trace: "
                         + "; ".join(bench.problems))
    per_run = [_layer_metrics(s) for s in traced]
    missing = [span for span in bench.workload.required_spans
               if all(s["trace"]["spans"].get(span, [0])[0] == 0
                      for s in traced)]
    if missing:
        raise BenchError(f"the trace recorded no calls to {missing} on "
                         f"{bench.workload.name}, which must call them; "
                         f"a wrapped name no longer reaches its callers")
    for name in COUNT_METRICS:
        values = {m[name][0] for m in per_run}
        if len(values) != 1:
            raise BenchError(f"count {name} differs between traced "
                             f"processes: {sorted(values)}")
    metrics = {name: (value if name in COUNT_METRICS else
                      statistics.median(m[name][0] for m in per_run), unit)
               for name, (value, unit) in per_run[0].items()}
    metrics["trace.overhead_s"] = (
        _median(traced, "wall_s") - _median(plain, "wall_s"), "s")
    first = traced[0]["trace"]
    samples = {"untraced_invocations": plain,
               "traced_invocations": [
                   {k: v for k, v in s.items() if k != "trace"}
                   for s in traced],
               "trace": first,
               "repeat_share": {
                   "calls": metrics["models.outputs_calls"][0],
                   "distinct": metrics["models.outputs_distinct"][0],
                   "share": metrics["models.repeat_share"][0]}}
    return metrics, samples


# ----------------------------------------------------------- environment

def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "git": _git(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "PyYAML": _version("PyYAML"),
        "multiprocessing_start_method": multiprocessing.get_start_method(),
        "thread_variables": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)     # unwinds through the clean-up below


def main(argv=None) -> int:
    run_start = time.perf_counter()
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "mfbia" / "cli.py").is_file():
        print(f"error: no mfbia source tree at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    bench = BenchRun(workload, args.seed, workdir)
    try:
        bench.set_up()
        if args.trace:
            metrics, samples = measure_layers(bench, args.seconds,
                                              run_start)
        else:
            metrics, samples = measure_end_to_end(bench, args.seconds,
                                                  run_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    correct = not bench.problems and bench.failed == 0
    report = {
        "workload": workload.name, "seed": args.seed,
        "seed_used": bench.inputs.get("seed_used"),
        "inputs": bench.inputs, "trace": args.trace,
        "environment": environment(), "problems": bench.problems,
        "artifacts_sha256": bench.artifacts, **samples,
    }
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
