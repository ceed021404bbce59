"""The benchmark's layer tracer still sees each sweep exactly once.

``bench/layertrace.py`` wraps the sweep entry points by name.  A renamed
entry point makes it refuse to run, and an alias makes it wrap one function
twice and count every cell twice; either would otherwise only show when the
benchmark runs.

A traced ``posterior`` run must record a call on every span the benchmark
requires of its ``posterior-fine`` workload; a missing span makes the
benchmark refuse the run.

The forward-model call count is pinned too.  The benchmark refuses a trace
whose counts differ between runs, so the count must follow from the tasks
alone, never from which worker ran which task.  A task makes three calls
for each field's misfit moments: synthesis, which checks the truth outputs;
the truth outputs the moments are centred on; and one row block of grid
nodes.  A cell makes none of its own, since it only takes its noise
variance from its SNRs.  A 20x20 grid at a few coordinates fits in one row
block of ``MISFIT_BLOCK_ELEMENTS``.

The posterior and gain counts are pinned as well, so that the sweep keeps
reaching the inference layer through the names the tracer wraps.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfbia.cli import main

ROOT = Path(__file__).resolve().parents[1]

TOY_CONFIG = (
    "model: toy-full\n"
    "truth: [1.2, 0.7]\n"
    "prior:\n"
    "  mean: [1.0, 0.6]\n  sd: [0.5, 0.5]\n"
    "  lower: [0.0, 0.0]\n  upper: [inf, inf]\n"
    "fields:\n"
    "  - {id: 1, count: 5, snr: 30, range: [0.1, 1.0]}\n"
    "  - {id: 2, count: 3, snr: 50, range: [0.1, 1.0]}\n"
    "grid: [20, 20]\n")


#: Posteriors each case evaluates: one per cell, and one single-field
#: posterior per field-1 SNR in each task or piece of a task.
POSTERIORS = {
    "{n_obs2: [2, 4], snr2: [5.0, 50.0]}": 2 * (1 + 2),
    "{snr1: [5.0, 50.0], snr2: [10.0], coupling: [0.1, 0.4, 0.7]}":
        3 * (2 + 2),
    "{n_obs2: [2, 4], snr2: [5.0, 50.0, 500.0]}": 2 * (1 + 3),
    "{snr2: [5.0, 50.0, 500.0]}": (1 + 1) + (1 + 2),
    "{snr2: [5.0, 50.0], coupling: [0.1, 0.4]}": 2 * (1 + 2),
}


@pytest.mark.parametrize("sweep,workers,cells,outputs", [
    # 2 tasks of 2 cells, one per n_obs2: 2 x (3 + 3)
    ("{n_obs2: [2, 4], snr2: [5.0, 50.0]}", "1", 4, 12),
    # 3 tasks of 2 cells, one per coupling; each task's two snr1 values
    # share one field-1 moments pass: 3 x (3 + 3)
    ("{snr1: [5.0, 50.0], snr2: [10.0], coupling: [0.1, 0.4, 0.7]}", "2", 6,
     18),
    # 2 tasks of 3 cells that share one field-2 moments pass: 2 x (3 + 3)
    ("{n_obs2: [2, 4], snr2: [5.0, 50.0, 500.0]}", "2", 6, 12),
    # 1 task split into pieces of 1 and 2 cells: (3 + 3) + (3 + 3)
    ("{snr2: [5.0, 50.0, 500.0]}", "2", 3, 12),
    # 2 tasks of 2 cells, one per coupling, the innermost axis: 2 x (3 + 3)
    ("{snr2: [5.0, 50.0], coupling: [0.1, 0.4]}", "1", 4, 12),
])
def test_traced_sweep_counts_each_cell_once(tmp_path, sweep, workers, cells,
                                            outputs):
    config = tmp_path / "config.yaml"
    config.write_text(TOY_CONFIG + f"sweep: {sweep}\n")
    result, trace = tmp_path / "result.json", tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "cli_child.py"),
         str(ROOT / "src"), str(result), "--trace", str(trace), "--",
         "sweep", "--config", str(config), "--out", str(tmp_path / "out"),
         "--workers", workers],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(trace.read_text())
    assert data["spans"]["sweep.run"][0] == 1
    assert data["counts"]["sweep.cells"] == cells
    assert data["counts"]["sweep.failed_cells"] == 0
    assert data["spans"]["models.outputs"][0] == outputs
    # every posterior and gain goes through the traced names, on the
    # 20x20 grid
    posteriors = POSTERIORS[sweep]
    assert data["spans"]["inference.posterior"][0] == posteriors
    assert data["spans"]["inference.ig"][0] == posteriors
    assert data["counts"]["inference.grid_nodes"] == posteriors * 400


def _bench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # the dataclasses in it look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def test_traced_posterior_calls_every_required_span(tmp_path):
    config = ROOT / "configs" / "fig9_right.yaml"
    obs_dir = tmp_path / "observations"
    assert main(["synthesize", "--config", str(config),
                 "--out", str(obs_dir)]) == 0
    obs_args = []
    for path in sorted(obs_dir.glob("*.csv")):
        obs_args += ["--obs", str(path)]
    result, trace = tmp_path / "result.json", tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "cli_child.py"),
         str(ROOT / "src"), str(result), "--trace", str(trace), "--",
         "posterior", "--config", str(config), *obs_args, "--grid", "20",
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    required = _bench_workloads()["posterior-fine"].required_spans
    missing = [name for name in required if spans.get(name, [0])[0] < 1]
    assert required and not missing, missing
