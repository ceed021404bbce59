"""Untimed set-up of one benchmark workload.

    python3 make_inputs.py WORKLOAD SEED WORKDIR

Imports ``mfbia.cli`` once, which also leaves the byte-code caches warm for
the timed processes, and writes the workload's inputs into WORKDIR:

- ``coupling-dense``: a config derived from ``configs/toyfull_coupling.yaml``
  with 8 points on each sweep axis (512 cells) and a 100x100 grid;
- ``posterior-fine``: a config derived from ``configs/fig9_right.yaml`` and
  its two observation CSVs (16 displacement and 256 current observations),
  written by ``mfbia synthesize``.

For both, SEED picks the truth uniformly inside the central region of the
prior, mean +/- half a standard deviation per parameter.  The ``reproduce``
workloads have built-in inputs and ignore SEED.  A summary of what was
written goes to WORKDIR/inputs.json.
"""

import json
import random
import sys
from pathlib import Path

import yaml

import mfbia.cli
from mfbia.config import load_config

ROOT = Path(__file__).resolve().parent.parent
SWEEP_POINTS = 8
CENTRAL_HALF_WIDTH = 0.5    # in prior standard deviations


def _derived_config(source: Path, seed: int, workdir: Path,
                    edit=None) -> tuple:
    raw = yaml.safe_load(source.read_text())
    prior = load_config(source).prior
    rng = random.Random(seed)
    truth = [float(m + s * rng.uniform(-CENTRAL_HALF_WIDTH,
                                       CENTRAL_HALF_WIDTH))
             for m, s in zip(prior.mean, prior.sd)]
    raw["truth"] = truth
    if edit is not None:
        edit(raw)
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    load_config(path)      # the derived config must still parse
    return path, truth


def _dense_sweep(raw):
    for axis in ("snr1", "snr2", "coupling"):
        raw["sweep"][axis]["num"] = SWEEP_POINTS
    raw["grid"] = [100, 100]


def main(workload: str, seed: int, workdir: Path) -> int:
    summary = {"workload": workload, "seed": seed, "seed_used": False}
    if workload == "coupling-dense":
        config, truth = _derived_config(
            ROOT / "configs" / "toyfull_coupling.yaml", seed, workdir,
            _dense_sweep)
        summary.update(seed_used=True, truth=truth, config=str(config))
    elif workload == "posterior-fine":
        config, truth = _derived_config(
            ROOT / "configs" / "fig9_right.yaml", seed, workdir)
        obs_dir = workdir / "observations"
        code = mfbia.cli.main(["synthesize", "--config", str(config),
                               "--out", str(obs_dir)])
        if code != 0:
            return code
        summary.update(seed_used=True, truth=truth, config=str(config),
                       observations=[str(p) for p in
                                     sorted(obs_dir.glob("*.csv"))])
    (workdir / "inputs.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
