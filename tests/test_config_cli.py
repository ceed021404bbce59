import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfbia.cli import main
from mfbia.config import (
    AxisSpec,
    ConfigError,
    default_config,
    load_config,
    parse_config,
    parse_quantity,
)
from mfbia.probabilistic import observations_from_csv


class TestQuantities:
    @pytest.mark.parametrize("text,expected", [
        ("11 kPa", 11e3),
        ("10 mm", 0.01),
        ("0.4 N", 0.4),
        ("10 V", 10.0),
        ("1.0 ohm.m", 1.0),
        ("2 MPa", 2e6),
        (11000, 11000.0),
        (0.35, 0.35),
        ("1.2e4", 1.2e4),
        ("inf", math.inf),
        (".inf", math.inf),
    ])
    def test_accepted(self, text, expected):
        assert parse_quantity(text) == expected

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("3 furlongs")

    def test_boolean_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity(True)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity([1, 2])


class TestAxisSpec:
    def test_log_integer_axis_dedupes(self):
        axis = AxisSpec(start=2, stop=256, num=10, spacing="log",
                        integer=True).resolve()
        assert axis[0] == 2 and axis[-1] == 256
        assert all(b > a for a, b in zip(axis, axis[1:]))

    def test_explicit_values(self):
        assert AxisSpec(values=(1.0, 2.0)).resolve() == (1.0, 2.0)

    def test_num_override(self):
        axis = AxisSpec(start=1.0, stop=100.0, num=3, spacing="log").resolve(5)
        assert len(axis) == 5


class TestConfigParsing:
    def minimal(self) -> dict:
        return {
            "model": "electromech",
            "truth": ["11 kPa", 0.35],
            "prior": {
                "mean": ["10 kPa", 0.3],
                "sd": ["2 kPa", 0.15],
                "lower": ["0 kPa", 0.0],
                "upper": ["inf", 0.5],
            },
            "fields": [
                {"id": 1, "count": 16, "snr": 50, "range": ["0 N", "0.4 N"]},
                {"id": 2, "count": 2, "snr": "1.2e4", "range": ["0 N", "0.4 N"]},
            ],
        }

    def test_units_become_si(self):
        config = parse_config(self.minimal())
        assert config.truth == (11e3, 0.35)
        np.testing.assert_array_equal(config.prior.mean, [10e3, 0.3])
        np.testing.assert_array_equal(config.prior.variance, [4e6, 0.0225])
        assert config.field_spec(2).snr == 1.2e4
        assert config.grid_shape == (100, 100)

    def test_matches_builtin_default(self):
        parsed = parse_config(self.minimal())
        builtin = default_config()
        assert parsed.model == builtin.model
        assert parsed.truth == builtin.truth
        np.testing.assert_array_equal(parsed.prior.mean, builtin.prior.mean)
        np.testing.assert_array_equal(parsed.prior.upper, builtin.prior.upper)
        assert parsed.fields == builtin.fields

    def test_unknown_model(self):
        data = self.minimal()
        data["model"] = "teleport"
        with pytest.raises(ConfigError, match="model"):
            parse_config(data)

    def test_unknown_key_flagged(self):
        data = self.minimal()
        data["grdi"] = [10, 10]
        with pytest.raises(ConfigError, match="grdi"):
            parse_config(data)

    def test_missing_section(self):
        data = self.minimal()
        del data["prior"]
        with pytest.raises(ConfigError, match="prior"):
            parse_config(data)

    def test_duplicate_fields(self):
        data = self.minimal()
        data["fields"].append(data["fields"][0])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(data)

    def test_committed_example_config(self):
        config = load_config("configs/fig9.yaml")
        builtin = default_config()
        assert config.truth == builtin.truth
        assert config.fields == builtin.fields
        assert config.grid_shape == builtin.grid_shape
        spec = config.sweep_spec()
        assert spec.axes == builtin.sweep_spec().axes

    def test_sweep_spec_full_resolution(self):
        # 50 requested log-spaced counts on [2, 256] collide when rounded
        # to integers; the axis keeps the 42 unique values
        spec = default_config().sweep_spec(full=True)
        counts, snrs = spec.axes["n_obs2"], spec.axes["snr2"]
        assert len(snrs) == 12
        assert snrs[0] == 80.0 and snrs[-1] == 1.2e4
        assert len(counts) == 42
        assert counts[0] == 2 and counts[-1] == 256
        assert all(b > a for a, b in zip(counts, counts[1:]))


class TestCliSynthesize:
    def test_default_counts(self, tmp_path, capsys):
        assert main(["synthesize", "--out", str(tmp_path)]) == 0
        field1 = (tmp_path / "observations_field1.csv").read_text().splitlines()
        field2 = (tmp_path / "observations_field2.csv").read_text().splitlines()
        assert len(field1) == 17  # header + 16
        assert len(field2) == 3   # header + 2

    def test_zero_count_gives_header_only(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "model: electromech\n"
            "truth: [11 kPa, 0.35]\n"
            "prior:\n"
            "  mean: [10 kPa, 0.3]\n  sd: [2 kPa, 0.15]\n"
            "  lower: [0 kPa, 0.0]\n  upper: [inf, 0.5]\n"
            "fields:\n"
            "  - {id: 1, count: 4, snr: 50, range: [0 N, 0.4 N]}\n"
            "  - {id: 2, count: 0, snr: 100, range: [0 N, 0.4 N]}\n")
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(config),
                     "--out", str(out)]) == 0
        lines = (out / "observations_field2.csv").read_text().splitlines()
        assert lines == ["field_id,coordinate,value,sigma2,snr"]

    def test_huge_snr_is_noiseless(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "model: electromech\n"
            "truth: [11 kPa, 0.35]\n"
            "prior:\n"
            "  mean: [10 kPa, 0.3]\n  sd: [2 kPa, 0.15]\n"
            "  lower: [0 kPa, 0.0]\n  upper: [inf, 0.5]\n"
            "fields:\n"
            "  - {id: 1, count: 6, snr: 1e18, range: [0 N, 0.4 N]}\n")
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(config),
                     "--out", str(out)]) == 0
        obs = observations_from_csv(out / "observations_field1.csv")
        from mfbia.models import build_model

        truth_out = build_model("electromech").outputs(
            np.array([11e3, 0.35]), 1, obs.coordinates)
        np.testing.assert_allclose(obs.values, truth_out, rtol=1e-6)

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("model: nonsense\ntruth: [1, 2]\n"
                          "prior: {mean: [0], sd: [1], lower: [-1], upper: [1]}\n"
                          "fields: []\n")
        assert main(["synthesize", "--config", str(config),
                     "--out", str(tmp_path)]) == 2


class TestCliPosterior:
    @pytest.fixture
    def observation_files(self, tmp_path):
        out = tmp_path / "obs"
        assert main(["synthesize", "--out", str(out)]) == 0
        return (out / "observations_field1.csv",
                out / "observations_field2.csv")

    def test_empty_selection_gives_prior(self, tmp_path, observation_files,
                                         capsys):
        out = tmp_path / "post"
        code = main(["posterior", "--obs", str(observation_files[0]),
                     "--fields", "", "--out", str(out), "--grid", "50,50"])
        assert code == 0
        data = json.loads((out / "posterior_fnone.json").read_text())
        assert abs(data["information_gain"]) <= 1e-9

    def test_field_selection_and_gain_ordering(self, tmp_path,
                                               observation_files):
        out = tmp_path / "post"
        f1, f2 = observation_files
        assert main(["posterior", "--obs", str(f1), "--fields", "1",
                     "--out", str(out), "--grid", "60,60"]) == 0
        assert main(["posterior", "--obs", str(f1), "--obs", str(f2),
                     "--fields", "1,2", "--out", str(out),
                     "--grid", "60,60"]) == 0
        single = json.loads((out / "posterior_f1.json").read_text())
        multi = json.loads((out / "posterior_f1-2.json").read_text())
        assert multi["information_gain"] > single["information_gain"]
        assert single["provenance"]["first_field_hash"] \
            == multi["provenance"]["first_field_hash"]

    def test_requesting_missing_field_exits_2(self, tmp_path,
                                              observation_files):
        assert main(["posterior", "--obs", str(observation_files[0]),
                     "--fields", "1,2", "--out", str(tmp_path)]) == 2

    def test_boundary_warning_printed_once(self, tmp_path, observation_files):
        # a subprocess, because pytest's log capture hides the logger line
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mfbia.cli", "posterior",
             "--obs", str(observation_files[0]), "--fields", "1",
             "--grid", "4", "--out", str(tmp_path / "post")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        warnings = [line for line in proc.stderr.splitlines()
                    if "outermost grid shell" in line]
        assert len(warnings) == 1, proc.stderr


class TestCliRiig:
    def make_runs(self, tmp_path):
        obs = tmp_path / "obs"
        main(["synthesize", "--out", str(obs)])
        out = tmp_path / "post"
        main(["posterior", "--obs", str(obs / "observations_field1.csv"),
              "--fields", "1", "--out", str(out), "--grid", "40,40"])
        main(["posterior", "--obs", str(obs / "observations_field1.csv"),
              "--obs", str(obs / "observations_field2.csv"),
              "--fields", "1,2", "--out", str(out), "--grid", "40,40"])
        return (out / "posterior_f1.json", out / "posterior_f1-2.json")

    def test_riig_report(self, tmp_path, capsys):
        single, multi = self.make_runs(tmp_path)
        assert main(["riig", str(single), str(multi),
                     "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "riig.json").read_text())
        assert data["riig"] == pytest.approx(
            (data["ig_multi"] - data["ig_single"]) / data["ig_single"])

    def test_identical_runs_give_zero(self, tmp_path, capsys):
        single, _ = self.make_runs(tmp_path)
        assert main(["riig", str(single), str(single)]) == 0
        assert "riig      = 0.0" in capsys.readouterr().out

    def test_hash_mismatch_exits_2(self, tmp_path, capsys):
        single, multi = self.make_runs(tmp_path)
        other_obs = tmp_path / "obs2"
        config = tmp_path / "config.yaml"
        config.write_text(
            "model: electromech\n"
            "truth: [11 kPa, 0.35]\n"
            "prior:\n"
            "  mean: [10 kPa, 0.3]\n  sd: [2 kPa, 0.15]\n"
            "  lower: [0 kPa, 0.0]\n  upper: [inf, 0.5]\n"
            "fields:\n"
            "  - {id: 1, count: 5, snr: 50, range: [0 N, 0.4 N]}\n")
        main(["synthesize", "--config", str(config), "--out", str(other_obs)])
        out2 = tmp_path / "post2"
        main(["posterior", "--config", str(config),
              "--obs", str(other_obs / "observations_field1.csv"),
              "--fields", "1", "--out", str(out2), "--grid", "40,40"])
        code = main(["riig", str(out2 / "posterior_f1.json"), str(multi)])
        assert code == 2
        assert "not comparable" in capsys.readouterr().err


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


class TestCliSweep:
    @pytest.mark.parametrize("edit,sweep,flags,key", [
        ({}, "[1, 2]", [], "sweep"),
        ({}, "{snr2: [5.0], bogus: 1}", [], "sweep.bogus"),
        ({}, "{snr_2: [5.0, 50.0]}", [], "snr_2"),
        ({}, "{snr1: {start: 1, stop: 9, num: 0}}", [], "snr1"),
        ({"count: 5": "count: sixteen"}, "{snr2: [5.0]}", [],
         "fields[0].count"),
        ({"grid:": "constants: {coupling13: 0.5}\ngrid:"}, "{snr2: [5.0]}",
         [], "coupling13"),
        ({}, "{stiffness: [1.0, 2.0]}", [], "stiffness"),
        ({"truth: [1.2, 0.7]": "truth: [1.2, 0.7, 0.1]"}, "{snr2: [5.0]}",
         [], "truth"),
        ({}, "{snr2: [5.0, 50.0]}", ["--full"], "sweep.full_num"),
        ({"grid: [20, 20]": "grid: [20, twenty]"}, "{snr2: [5.0]}", [],
         "grid[1]"),
        ({"grid: [20, 20]": "grid: [20, 20, 20]"}, "{snr2: [5.0]}", [],
         "grid"),
        ({"fields:\n": "fields: 5\n", "  - {id": "#  - {id"},
         "{snr2: [5.0]}", [], "fields"),
    ])
    def test_malformed_sweep_exits_2(self, tmp_path, capsys, edit, sweep,
                                     flags, key):
        text = TOY_CONFIG + f"sweep: {sweep}\n"
        for old, new in edit.items():
            text = text.replace(old, new)
        config = tmp_path / "config.yaml"
        config.write_text(text)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_single_axis_sweep_keeps_field_plans(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(TOY_CONFIG + "sweep: {snr2: [5.0, 50.0]}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "snr2,ig_single,ig_multi,riig,boundary_mass,status"
        assert len(lines) == 3 and all(line.endswith(",ok")
                                       for line in lines[1:])
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["spec"]["fields"][1]["count"] == 3

    def test_small_sweep_artifacts(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "model: toy-full\n"
            "constants: {coupling12: 0.5, coupling21: 0.25}\n"
            "truth: [1.2, 0.7]\n"
            "prior:\n"
            "  mean: [1.0, 0.6]\n  sd: [0.5, 0.5]\n"
            "  lower: [0.0, 0.0]\n  upper: [inf, inf]\n"
            "fields:\n"
            "  - {id: 1, count: 6, snr: 30, range: [0.0, 1.0]}\n"
            "  - {id: 2, count: 2, snr: 50, range: [0.0, 1.0]}\n"
            "grid: [30, 30]\n"
            "sweep:\n"
            "  n_obs2: [2, 4]\n"
            "  snr2: [5.0, 50.0]\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["cells"] == 4

    def test_coupling_sweep_via_config(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "model: toy-full\n"
            "truth: [1.2, 0.7]\n"
            "prior:\n"
            "  mean: [1.0, 0.6]\n  sd: [0.5, 0.5]\n"
            "  lower: [0.0, 0.0]\n  upper: [inf, inf]\n"
            "fields:\n"
            "  - {id: 1, count: 5, snr: 30, range: [0.1, 1.0]}\n"
            "  - {id: 2, count: 3, snr: 50, range: [0.1, 1.0]}\n"
            "grid: [25, 25]\n"
            "sweep:\n"
            "  kind: coupling\n"
            "  snr1: [5.0, 50.0]\n"
            "  snr2: [10.0]\n"
            "  coupling: [0.1, 0.5]\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("snr1,snr2,coupling")
        assert len(lines) == 1 + 2 * 1 * 2

    def test_sweep_without_section_exits_2(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "model: electromech\n"
            "truth: [11 kPa, 0.35]\n"
            "prior:\n"
            "  mean: [10 kPa, 0.3]\n  sd: [2 kPa, 0.15]\n"
            "  lower: [0 kPa, 0.0]\n  upper: [inf, 0.5]\n"
            "fields:\n"
            "  - {id: 1, count: 4, snr: 50, range: [0 N, 0.4 N]}\n")
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == 2


class TestGridFlag:
    def test_bad_grid_exits_2(self, tmp_path):
        obs = tmp_path / "obs"
        main(["synthesize", "--out", str(obs)])
        assert main(["posterior",
                     "--obs", str(obs / "observations_field1.csv"),
                     "--fields", "1", "--grid", "abc",
                     "--out", str(tmp_path)]) == 2
