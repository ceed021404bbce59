"""The benchmark's layer tracer still sees each sweep exactly once.

``bench/layertrace.py`` wraps the sweep entry points by name.  A renamed
entry point makes it refuse to run, and an alias makes it wrap one function
twice and count every cell twice; either would otherwise only show when the
benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("sweep,workers,cells", [
    ("{n_obs2: [2, 4], snr2: [5.0, 50.0]}", "1", 4),
    ("{snr1: [5.0, 50.0], snr2: [10.0], coupling: [0.1, 0.4, 0.7]}", "2", 6),
])
def test_traced_sweep_counts_each_cell_once(tmp_path, sweep, workers, cells):
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
