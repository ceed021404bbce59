import argparse
import contextlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import mfbia.cli as cli
from mfbia.cli import build_parser, main
from mfbia.config import (
    ConfigError,
    _parse_axis,
    default_config,
    load_config,
    parse_config,
    parse_quantity,
)
from mfbia.models import build_model
from mfbia.probabilistic import observations_from_csv, synthesize_observations


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
    """A ``sweep:`` entry becomes its tuple of values at parse time."""

    def test_log_integer_axis_dedupes(self):
        data = TestConfigParsing().minimal()
        data["sweep"] = {"n_obs2": {"start": 2, "stop": 256, "num": 10,
                                    "spacing": "log", "integer": True}}
        axis = parse_config(data).sweep["n_obs2"]
        assert axis[0] == 2 and axis[-1] == 256
        assert all(b > a for a, b in zip(axis, axis[1:]))

    def test_integer_axis_matches_numpy_rounding(self):
        # ties round half to even, as np.round does, and repeats collapse
        for section in ({"start": -0.5, "stop": 3.0, "num": 8,
                         "spacing": "linear"},
                        {"start": 2, "stop": 256, "num": 10},
                        {"start": 2, "stop": 256, "num": 40},
                        {"start": 0.0, "stop": 7.0, "num": 15,
                         "spacing": "linear"}):
            unrounded = _parse_axis(section, "axis")
            expected = tuple(int(v) for v in np.unique(np.round(unrounded)))
            assert _parse_axis({**section, "integer": True}, "axis") == \
                expected
        assert default_config().sweep["n_obs2"] == \
            (2, 3, 6, 10, 17, 30, 51, 87, 149, 256)

    def test_non_finite_integer_axis_is_config_error(self):
        data = TestConfigParsing().minimal()
        data["sweep"] = {"n_obs2": {"start": 2, "stop": ".inf", "num": 3,
                                    "integer": True}}
        with pytest.raises(ConfigError, match=r"^sweep\.n_obs2\.stop: "):
            parse_config(data)

    def test_explicit_values(self):
        data = TestConfigParsing().minimal()
        data["sweep"] = {"voltage": [1, "2 kV", 3500.5]}
        axis = parse_config(data).sweep["voltage"]
        assert axis == (1.0, 2000.0, 3500.5)
        assert all(type(v) is float for v in axis)


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

    def test_configs_compare_by_value(self):
        assert default_config() == default_config()
        assert parse_config(self.minimal()).prior == default_config().prior
        assert default_config() != default_config(full=True)
        data = self.minimal()
        data["prior"]["sd"] = ["3 kPa", 0.15]
        assert parse_config(data).prior != default_config().prior

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
        assert config.sweep == builtin.sweep

    def test_sweep_full_resolution(self):
        # 50 requested log-spaced counts on [2, 256] collide when rounded
        # to integers; the axis keeps the 42 unique values
        sweep = default_config(full=True).sweep
        counts, snrs = sweep["n_obs2"], sweep["snr2"]
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

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("model: [unclosed\n")
        assert main(["synthesize", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "Traceback" not in err

    @pytest.mark.parametrize("prefix,count,message", [
        # PyYAML's int() refuses integer literals past 4300 digits
        pytest.param(b"", b"1" * 5001, "4300", id="count-past-digit-limit"),
        pytest.param(b"\xff\xfe", b"16", "utf-8", id="not-utf8"),
    ])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, prefix, count,
                                       message):
        config = tmp_path / "config.yaml"
        config.write_bytes(prefix + (CONFIG_DIR / "fig9.yaml").read_bytes()
                           .replace(b"count: 16", b"count: " + count))
        assert main(["synthesize", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and message in err
        assert not (tmp_path / "out").exists()


class TestCliPosterior:
    @pytest.fixture
    def observation_files(self, tmp_path):
        out = tmp_path / "obs"
        assert main(["synthesize", "--out", str(out)]) == 0
        return (out / "observations_field1.csv",
                out / "observations_field2.csv")

    def test_empty_selection_gives_prior(self, tmp_path, capsys):
        out = tmp_path / "post"
        code = main(["posterior", "--out", str(out), "--grid", "50,50"])
        assert code == 0
        data = json.loads((out / "posterior_fnone.json").read_text())
        assert abs(data["information_gain"]) <= 1e-9

    def test_sidecar_grid_shape_is_the_grids(self, tmp_path):
        out = tmp_path / "post"
        assert main(["posterior", "--out", str(out), "--grid", "30"]) == 0
        data = json.loads((out / "posterior_fnone.json").read_text())
        assert data["grid_shape"] == [30, 30]
        assert [len(axis) for axis in data["axes"]] == [30, 30]

    def test_field_selection_and_gain_ordering(self, tmp_path,
                                               observation_files):
        out = tmp_path / "post"
        f1, f2 = observation_files
        assert main(["posterior", "--obs", str(f1),
                     "--out", str(out), "--grid", "60,60"]) == 0
        assert main(["posterior", "--obs", str(f1), "--obs", str(f2),
                     "--out", str(out), "--grid", "60,60"]) == 0
        single = json.loads((out / "posterior_f1.json").read_text())
        multi = json.loads((out / "posterior_f1-2.json").read_text())
        assert multi["information_gain"] > single["information_gain"]
        assert (single["fields"], multi["fields"]) == ([1], [1, 2])
        assert single["provenance"]["first_field_hash"] \
            == multi["provenance"]["first_field_hash"]

    @pytest.mark.parametrize("force", ["-0.3", "nan", "inf"])
    def test_observation_force_outside_domain_exits_2(
            self, tmp_path, capsys, observation_files, force):
        lines = observation_files[0].read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = force
        lines[3] = ",".join(fields)
        bad = tmp_path / "outside.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["posterior", "--obs", str(bad), "--grid", "20",
                     "--out", str(tmp_path / "post")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "force" in err and "Traceback" not in err
        assert not (tmp_path / "post").exists()

    @pytest.mark.parametrize("column,text,message", [
        (1, "abc", "column 'coordinate': expected a number, got 'abc'"),
        (3, "-1e-09", "column 'sigma2' must be finite and > 0, got -1e-09"),
        (3, "0.0", "column 'sigma2' must be finite and > 0, got 0.0"),
        (3, "inf", "column 'sigma2' must be finite and > 0, got inf"),
    ])
    def test_malformed_observation_cell_exits_2(
            self, tmp_path, capsys, observation_files, column, text,
            message):
        header, *rows = observation_files[0].read_text().splitlines()
        if column == 3:    # sigma2 is one value for the whole file
            rows = [",".join(cells[:3] + [text] + cells[4:])
                    for cells in (row.split(",") for row in rows)]
        else:
            cells = rows[2].split(",")
            cells[column] = text
            rows[2] = ",".join(cells)
        bad = tmp_path / "malformed.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        assert main(["posterior", "--obs", str(bad), "--grid", "20",
                     "--out", str(tmp_path / "post")]) == 2
        err = capsys.readouterr().err
        assert f"--obs {bad}: " in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "post").exists()

    def test_non_utf8_observation_file_exits_2(self, tmp_path, capsys,
                                               observation_files):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"\xff\xfe" + observation_files[0].read_bytes())
        assert main(["posterior", "--obs", str(bad), "--grid", "20",
                     "--out", str(tmp_path / "post")]) == 2
        err = capsys.readouterr().err
        assert f"--obs {bad}: " in err and "utf-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "post").exists()

    def test_repeated_observation_field_exits_2(self, tmp_path, capsys,
                                                observation_files):
        f1 = observation_files[0]
        copy = tmp_path / "copy.csv"
        copy.write_text(f1.read_text())
        assert main(["posterior", "--obs", str(f1), "--obs", str(copy),
                     "--grid", "20", "--out", str(tmp_path / "post")]) == 2
        err = capsys.readouterr().err
        assert str(f1) in err and str(copy) in err and "field 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "post").exists()

    def test_observation_field_the_model_lacks_exits_2(
            self, tmp_path, capsys, observation_files):
        header, *rows = observation_files[0].read_text().splitlines()
        bad = tmp_path / "field3.csv"
        bad.write_text("\n".join([header] + ["3" + row[row.index(","):]
                                             for row in rows]) + "\n")
        assert observations_from_csv(bad).field_id == 3
        assert main(["posterior", "--obs", str(bad), "--grid", "20",
                     "--out", str(tmp_path / "post")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "field 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "post").exists()

    @pytest.mark.parametrize("lower,lower_pa", [("22 kPa", 22e3),
                                                ("28 kPa", 28e3)])
    def test_prior_far_in_upper_tail_gets_a_grid(self, tmp_path, lower,
                                                  lower_pa):
        # 6 and 9 sd above the prior mean; at 9 sd Phi(a) rounds to 1
        text = (CONFIG_DIR / "fig9.yaml").read_text()
        text = text.replace("truth: [11 kPa, 0.35]", "truth: [29 kPa, 0.35]")
        text = text.replace("lower: [0 kPa, 0.0]", f"lower: [{lower}, 0.0]")
        config = tmp_path / "config.yaml"
        config.write_text(text)
        obs = tmp_path / "obs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", "--config", str(config),
                         "--out", str(obs)]) == 0
            assert main(["posterior", "--config", str(config),
                         "--obs", str(obs / "observations_field1.csv"),
                         "--grid", "20", "--out", str(tmp_path / "post")]) == 0
        sidecar = json.loads(
            (tmp_path / "post" / "posterior_f1.json").read_text())
        assert sidecar["information_gain"] > 0
        axis = sidecar["axes"][0]
        assert lower_pa < axis[0] and np.all(np.diff(axis) > 0)

    def test_boundary_warning_printed_once(self, tmp_path, observation_files):
        # a subprocess, so that stderr holds exactly what a user sees
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mfbia.cli", "posterior",
             "--obs", str(observation_files[0]), "--grid", "4",
             "--out", str(tmp_path / "post")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        warnings = [line for line in proc.stderr.splitlines()
                    if "outermost grid shell" in line]
        assert len(warnings) == 1, proc.stderr

    def test_log_level_error_suppresses_the_warning(self, tmp_path, capsys,
                                                    observation_files):
        assert main(["--log-level", "error", "posterior",
                     "--obs", str(observation_files[0]), "--grid", "4",
                     "--out", str(tmp_path / "post")]) == 0
        assert "outermost grid shell" not in capsys.readouterr().err

    def test_log_level_debug_counts_dead_nodes(self, tmp_path, capsys):
        # a soft, nearly incompressible prior: at 0.4 N the current of
        # nodes below about 3.5 kPa is NaN, so their likelihood is -inf
        text = (CONFIG_DIR / "fig9.yaml").read_text()
        for old, new in (("truth: [11 kPa, 0.35]", "truth: [5 kPa, 0.45]"),
                         ("mean: [10 kPa, 0.3]", "mean: [4 kPa, 0.45]"),
                         ("sd: [2 kPa, 0.15]", "sd: [1 kPa, 0.03]")):
            text = text.replace(old, new)
        config = tmp_path / "config.yaml"
        config.write_text(text)
        obs = tmp_path / "obs"
        assert main(["synthesize", "--config", str(config),
                     "--out", str(obs)]) == 0
        package_logger = logging.getLogger("mfbia")
        level, handlers = package_logger.level, list(package_logger.handlers)
        dead = "log-likelihood is -inf at 31 of 100 points"
        for flags, shown in (([], False), (["--log-level", "debug"], True)):
            capsys.readouterr()
            assert main([*flags, "posterior", "--config", str(config),
                         "--obs", str(obs / "observations_field2.csv"),
                         "--grid", "10", "--out", str(tmp_path / "post")]) == 0
            assert (dead in capsys.readouterr().err) == shown
        assert package_logger.level == level
        assert package_logger.handlers == handlers

    def test_bad_log_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "loud", "reproduce", "fig9"])
        assert exc.value.code == 2
        assert "--log-level" in capsys.readouterr().err


class TestCliRiig:
    def make_runs(self, tmp_path):
        obs = tmp_path / "obs"
        main(["synthesize", "--out", str(obs)])
        out = tmp_path / "post"
        main(["posterior", "--obs", str(obs / "observations_field1.csv"),
              "--out", str(out), "--grid", "40,40"])
        main(["posterior", "--obs", str(obs / "observations_field1.csv"),
              "--obs", str(obs / "observations_field2.csv"),
              "--out", str(out), "--grid", "40,40"])
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
              "--out", str(out2), "--grid", "40,40"])
        code = main(["riig", str(out2 / "posterior_f1.json"), str(multi)])
        assert code == 2
        assert "not comparable" in capsys.readouterr().err

    def test_different_model_constants_exit_2(self, tmp_path, capsys):
        # the same field-1 data, analysed under a second voltage
        single, multi = self.make_runs(tmp_path)
        config = tmp_path / "20V.yaml"
        config.write_text((CONFIG_DIR / "fig9.yaml").read_text().replace(
            "voltage: 10 V", "voltage: 20 V"))
        obs = tmp_path / "obs"
        out = tmp_path / "20V"
        assert main(["posterior", "--config", str(config),
                     "--obs", str(obs / "observations_field1.csv"),
                     "--obs", str(obs / "observations_field2.csv"),
                     "--out", str(out), "--grid", "40,40"]) == 0
        sidecar = json.loads((out / "posterior_f1-2.json").read_text())
        assert sidecar["provenance"]["model_constants"]["voltage"] == 20.0
        capsys.readouterr()
        assert main(["riig", str(single), str(multi)]) == 0
        assert main(["riig", str(single),
                     str(out / "posterior_f1-2.json")]) == 2
        err = capsys.readouterr().err
        assert "model_constants differs" in err and "not comparable" in err

    def test_different_grids_exit_2(self, tmp_path, capsys):
        _, multi = self.make_runs(tmp_path)
        out = tmp_path / "coarse"
        main(["posterior", "--obs",
              str(tmp_path / "obs" / "observations_field1.csv"),
              "--out", str(out), "--grid", "20"])
        single = out / "posterior_f1.json"
        capsys.readouterr()
        assert main(["riig", str(single), str(multi)]) == 2
        err = capsys.readouterr().err
        assert f"{single} and {multi}" in err and "different grids" in err

    @pytest.mark.parametrize("text,key", [
        ("{not json", "not a JSON file"),
        ("[1.5, {}]", "JSON object"),
        ('{"information_gain": null, "provenance": {}}', "information_gain"),
        ('{"information_gain": NaN, "provenance": {}}', "information_gain"),
        ('{"information_gain": Infinity, "provenance": {}}',
         "information_gain"),
        ('{"information_gain": "1.5", "provenance": {}}', "information_gain"),
        ('{"information_gain": true, "provenance": {}}', "information_gain"),
        ('{"information_gain": 1.5, "provenance": "abc"}', "provenance"),
        ('{"information_gain": 1.5, "provenance": {}}',
         "provenance.prior_hash"),
        ('{"information_gain": 1.5, "provenance": {"prior_hash": 3, '
         '"first_field_hash": "b"}}', "provenance.prior_hash"),
        ('{"information_gain": 1.5, "provenance": {"prior_hash": "a", '
         '"first_field_hash": null}}', "provenance.first_field_hash"),
        ('{"information_gain": 1.5, "provenance": {"prior_hash": "a", '
         '"first_field_hash": "b"}, "axes": [[0.0, 1.0]]}',
         "provenance.model_constants"),
        ('{"information_gain": 1.5, "provenance": {"prior_hash": "a", '
         '"first_field_hash": "b", "model_constants": [1.0]}, '
         '"axes": [[0.0, 1.0]]}', "provenance.model_constants"),
        ('{"information_gain": 1.5, "provenance": {"prior_hash": "a", '
         '"first_field_hash": "b", "model_constants": {}}}', "axes"),
        ('{"information_gain": 1.5, "provenance": {"prior_hash": "a", '
         '"first_field_hash": "b", "model_constants": {}}, "axes": 3}',
         "axes"),
    ])
    def test_malformed_sidecar_exits_2(self, tmp_path, capsys, text, key):
        good = tmp_path / "good.json"
        good.write_text('{"information_gain": 2.0, "provenance": '
                        '{"prior_hash": "a", "first_field_hash": "b", '
                        '"model_constants": {}}, "axes": [[0.0, 1.0]]}')
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for runs in ([bad, good], [good, bad]):
            assert main(["riig", *map(str, runs)]) == 2
            err = capsys.readouterr().err
            assert f"{bad}: " in err and key in err
            assert "Traceback" not in err


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
        ({}, "{snr2: [5.0], kind: riig}", [], "sweep.kind"),
        ({"grid: [20, 20]": "grid: [20, twenty]"}, "{snr2: [5.0]}", [],
         "grid[1]"),
        ({"grid: [20, 20]": "grid: [20, 20, 20]"}, "{snr2: [5.0]}", [],
         "grid"),
        ({"fields:\n": "fields: 5\n", "  - {id": "#  - {id"},
         "{snr2: [5.0]}", [], "fields"),
        ({"truth: [1.2, 0.7]": "truth: [-1.0, 0.7]"}, "{snr2: [5.0]}",
         [], "truth"),
        ({"model: toy-full": "model: electromech",
          "truth: [1.2, 0.7]": "truth: [1.2, 0.3]"},
         "{side_length: [0.0, 0.01]}", [], "sweep.side_length"),
        ({}, "{coupling: [0.5, 2.5]}", [], "sweep.coupling"),
        ({}, "{snr2: [5.0], full_num: [50, 12]}", [], "full_num"),
        ({}, '{n_obs2: {start: 2, stop: 8, num: 3, integer: "false"}}', [],
         "sweep.n_obs2.integer"),
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

    def test_constant_axes_checked_together(self, tmp_path, capsys):
        # 3.5 * 0.25 (the config's coupling21) would be out of range, but
        # the sweep pairs 3.5 only with 0.1 and 0.2
        good = tmp_path / "good.yaml"
        good.write_text(TOY_CONFIG + "sweep: {coupling12: [3.5], "
                                     "coupling21: [0.1, 0.2]}\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text(TOY_CONFIG + "sweep: {coupling12: [3.5], "
                                    "coupling21: [0.1, 0.3]}\n")
        for command in ("synthesize", "posterior", "sweep"):
            assert main([command, "--config", str(good),
                         "--out", str(tmp_path / command)]) == 0, command
            capsys.readouterr()
            out = tmp_path / f"bad_{command}"
            assert main([command, "--config", str(bad),
                         "--out", str(out)]) == 2, command
            assert "sweep.coupling12/coupling21" in capsys.readouterr().err
            assert not out.exists()

    def test_sweep_without_field_2(self, tmp_path, capsys):
        # field 2 then makes no observations, on field 1's range, so a
        # sweep over both its axes gives the cells of an explicit field 2
        # on that range
        no_field2 = TOY_CONFIG.replace(
            "  - {id: 2, count: 3, snr: 50, range: [0.1, 1.0]}\n", "")
        assert no_field2 != TOY_CONFIG
        axes = "sweep: {n_obs2: [2, 4], snr2: [5.0, 50.0]}\n"
        csvs = []
        for name, text in (("implicit", no_field2), ("explicit", TOY_CONFIG)):
            config = tmp_path / f"{name}.yaml"
            config.write_text(text + axes)
            out = tmp_path / name
            assert main(["sweep", "--config", str(config),
                         "--out", str(out)]) == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].decode().count(",ok\n") == 2 * 2
        # without an n_obs2 axis, field 2 would have no observations
        config = tmp_path / "snr2_only.yaml"
        config.write_text(no_field2 + "sweep: {snr2: [5.0, 50.0]}\n")
        capsys.readouterr()
        for command in ("synthesize", "posterior", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(config),
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: {config}: sweep.n_obs2: observation counts must "
                f"be >= 1, got 0\n")
            assert not out.exists()

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

    def test_log_record_starts_a_new_line(self, tmp_path, capsys):
        # a 30x30 grid leaves boundary mass in some cells, and the warning
        # of the third cell comes while the progress line is open
        data = yaml.safe_load((CONFIG_DIR / "fig9.yaml").read_text())
        data.update(grid=[30, 30],
                    sweep={"n_obs2": [2, 256], "snr2": [80.0, 12000.0]})
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.split("\n")
        assert any(line.startswith("WARNING") for line in lines)
        assert not [line for line in lines
                    if "cells" in line and "WARNING" in line]
        assert lines[-2].endswith("\rsweep: 4/4 cells") and lines[-1] == ""
        assert captured.out.startswith("4 cells, 0 failed, ")

    def test_error_mid_sweep_starts_a_new_line(self, tmp_path, capsys,
                                               monkeypatch):
        def failing_sweep(config, workers, progress):
            progress(1, 4)
            raise RuntimeError("worker died")

        monkeypatch.setattr(cli, "run_riig_sweep", failing_sweep)
        assert main(["reproduce", "fig10", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "\rfig10: 1/4 cells\nerror: worker died\n"


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # no real allocation: one this large could succeed on a machine that
    # overcommits memory, and then exhaust it
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                          "shape (100000, 100000)")

    monkeypatch.setattr(cli, "PriorGrid", refuse)
    assert main(["posterior", "--grid", "100000",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 74.5 GiB for an array with shape "
        "(100000, 100000)\n")


class TestToyCoordinates:
    """A toy-full coordinate that is not finite exits 2, naming where it
    came from."""

    @pytest.mark.parametrize("command", ["synthesize", "posterior", "sweep"])
    def test_non_finite_range_exits_2(self, tmp_path, capsys, command):
        config = tmp_path / "config.yaml"
        config.write_text(TOY_CONFIG.replace("range: [0.1, 1.0]",
                                             "range: [0.1, .inf]", 1)
                          + "sweep: {snr2: [5.0, 50.0]}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {config}: fields[0].range: coordinate must "
                       f"be finite, got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("coordinate", ["inf", "-inf", "nan"])
    def test_non_finite_observation_coordinate_exits_2(
            self, tmp_path, capsys, coordinate):
        config = tmp_path / "config.yaml"
        config.write_text(TOY_CONFIG)
        obs = tmp_path / "obs"
        assert main(["synthesize", "--config", str(config),
                     "--out", str(obs)]) == 0
        lines = (obs / "observations_field1.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = coordinate
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["posterior", "--config", str(config), "--obs", str(bad),
                     "--out", str(tmp_path / "post")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --obs {bad}: coordinate must be "
                              f"finite, got ")
        assert "Traceback" not in err
        assert not (tmp_path / "post").exists()


class TestGridFlag:
    @pytest.mark.parametrize("grid", ["abc", "4,4,4", "1", ",", "", " , "])
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid):
        obs = tmp_path / "obs"
        main(["synthesize", "--out", str(obs)])
        assert main(["posterior",
                     "--obs", str(obs / "observations_field1.csv"),
                     "--grid", grid,
                     "--out", str(tmp_path)]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_grid_finer_than_the_prior_box_exits_2(self, tmp_path, capsys):
        # E's box spans about 700 doubles: 20 points fit, 2000 do not
        data = yaml.safe_load((CONFIG_DIR / "fig9.yaml").read_text())
        data["prior"]["lower"] = ["70 kPa", 0.0]
        data["prior"]["upper"] = ["70.00000000001 kPa", 0.5]
        data["truth"] = ["70.000000000005 kPa", 0.35]
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        assert main(["posterior", "--config", str(config), "--grid", "20,20",
                     "--out", str(tmp_path / "coarse")]) == 0
        capsys.readouterr()
        out = tmp_path / "fine"
        assert main(["posterior", "--config", str(config), "--grid",
                     "2000,20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: --grid: axis 0: 2000 points are more than" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "posterior"])
    def test_config_grid_finer_than_the_prior_box_exits_2(
            self, tmp_path, capsys, command):
        data = yaml.safe_load((CONFIG_DIR / "toyfull_coupling.yaml")
                              .read_text())
        data["prior"]["lower"] = [1.0, 0.0]
        data["prior"]["upper"] = [1.00000000000001, "inf"]
        data["truth"] = [1.000000000000005, 0.7]
        data["grid"] = [500, 20]
        data["sweep"] = {"snr2": [10.0, 1000.0]}
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: grid: axis 0: 500 points are more " in err
        assert "Traceback" not in err
        assert not out.exists()


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ANY_MODEL = {"electromech", "toy-full"}

#: (models the value is bad for, key path, bad value, key the error names)
BAD_VALUES = [
    ({"electromech"}, ("truth", 0), "0 Pa", "truth[0]"),
    ({"electromech"}, ("truth", 1), 0.5, "truth[1]"),
    ({"electromech"}, ("fields", 0, "range"), ["-0.1 N", "0.4 N"],
     "fields[0].range"),
    ({"electromech"}, ("fields", 1, "range"), ["-0.4 N", "0.4 N"],
     "fields[1].range"),
    ({"electromech"}, ("constants", "side_length"), "0 m",
     "constants.side_length"),
    ({"toy-full"}, ("constants", "coupling"), 1.0, "constants"),
    (ANY_MODEL, ("workers",), "abc", "workers"),
    (ANY_MODEL, ("workers",), -3, "workers"),
    (ANY_MODEL, ("fields", 0, "count"), -1, "count"),
    (ANY_MODEL, ("grid",), 1, "grid"),
    (ANY_MODEL, ("constants", "bogus"), 1.0, "constants"),
    (ANY_MODEL, ("fields", 0, "range"), [0.4], "fields[0].range"),
    (ANY_MODEL, ("fields", 0, "range"), [0.1, 0.2, 0.4], "fields[0].range"),
    (ANY_MODEL, ("fields", 1, "id"), 3, "fields[1].id"),
    (ANY_MODEL, ("fields", 0, "count"), 2.5, "fields[0].count"),
    (ANY_MODEL, ("fields", 0, "count"), math.inf, "fields[0].count"),
    (ANY_MODEL, ("grid",), [100.7, 100], "grid[0]"),
    (ANY_MODEL, ("workers",), 1.5, "workers"),
    (ANY_MODEL, ("workers",), math.inf, "workers"),
    (ANY_MODEL, ("fields", 0, "snr"), math.inf, "fields[0].snr"),
]

MUTATIONS = [
    (path.name, path_, value, key)
    for path in sorted(CONFIG_DIR.glob("*.yaml"))
    for models, path_, value, key in BAD_VALUES
    if yaml.safe_load(path.read_text())["model"] in models]


class TestConfigMutation:
    @given(st.sampled_from(MUTATIONS))
    def test_bad_value_exits_2_naming_the_key(self, mutation):
        name, path, value, key = mutation
        data = yaml.safe_load((CONFIG_DIR / name).read_text())
        target = data
        for step in path[:-1]:
            target = (target.setdefault(step, {}) if isinstance(step, str)
                      else target[step])
        target[path[-1]] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.yaml"
            config.write_text(yaml.safe_dump(data))
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["synthesize", "--config", str(config),
                             "--out", tmp])
        assert code == 2
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error:")]
        assert errors and key in errors[-1]
        assert "Traceback" not in err.getvalue()


def _mutated_fig9(tmp_path, path, value) -> Path:
    """``configs/fig9.yaml`` with the entry at key ``path`` set to
    ``value``, written to ``tmp_path``."""
    data = yaml.safe_load((CONFIG_DIR / "fig9.yaml").read_text())
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(data))
    return config


class TestNonFiniteInputs:
    @pytest.mark.parametrize("path,value,key", [
        (("truth", 0), math.inf, "truth[0]"),
        (("constants", "side_length"), math.inf, "constants.side_length"),
        (("constants", "voltage"), math.nan, "constants.voltage"),
        (("constants", "voltage"), 0.0, "constants.voltage"),
        (("constants", "resistivity"), math.inf, "constants.resistivity"),
        (("sweep",), {"voltage": [0.0, 10.0]}, "sweep.voltage"),
        (("sweep",), {"side_length": [0.01, math.inf]}, "sweep.side_length"),
        pytest.param(("truth", 0), 10 ** 400, "truth[0]", id="truth-1e400"),
        pytest.param(("fields", 0, "count"), 10 ** 400, "fields[0].count",
                     id="count-1e400"),
    ])
    def test_electromech_value_exits_2(self, tmp_path, capsys, path, value,
                                       key):
        config = _mutated_fig9(tmp_path, path, value)
        commands = ("synthesize", "posterior", "sweep") \
            if path == ("sweep",) else ("synthesize",)
        for command in commands:
            out = tmp_path / command
            assert main([command, "--config", str(config),
                         "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert f"{key}: " in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("path,value,key,commands", [
        (("sweep", "snr2", "num"), 10.9, "sweep.snr2.num",
         ("synthesize", "posterior", "sweep")),
        (("sweep", "snr2", "spacing"), "cubic", "sweep.snr2.spacing",
         ("synthesize", "posterior", "sweep")),
        (("sweep", "snr2"), [80.0, math.inf], "sweep.snr2",
         ("synthesize", "posterior", "sweep")),
        (("sweep", "n_obs2"), [2.5, 4.0], "sweep.n_obs2[0]",
         ("synthesize", "posterior", "sweep")),
        (("sweep", "n_obs2"), [2.0, math.inf], "sweep.n_obs2[1]",
         ("synthesize", "posterior", "sweep")),
        pytest.param(("sweep", "n_obs2"), [2, 10 ** 400], "sweep.n_obs2[1]",
                     ("synthesize", "sweep"), id="n_obs2-1e400"),
        pytest.param(("sweep", "n_obs2"),
                     {"start": 0, "stop": 256, "num": 10, "integer": True},
                     "sweep.n_obs2", ("synthesize", "posterior", "sweep"),
                     id="n_obs2-log-from-0"),
        pytest.param(("sweep", "snr2", "stop"), "1e400", "sweep.snr2.stop",
                     ("synthesize", "posterior", "sweep"),
                     id="snr2-stop-1e400"),
        pytest.param(("sweep", "snr2", "start"), -math.inf,
                     "sweep.snr2.start", ("synthesize", "posterior", "sweep"),
                     id="snr2-start--inf"),
    ])
    def test_sweep_value_exits_2(self, tmp_path, capsys, path, value, key,
                                 commands):
        config = _mutated_fig9(tmp_path, path, value)
        for command in commands:
            out = tmp_path / command
            assert main([command, "--config", str(config),
                         "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert f"{key}: " in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("path,value,key", [
        (("sweep", "snr2"), [10.0, math.inf], "sweep.snr2"),
        (("sweep", "n_obs2"), [2.5, 4.0], "sweep.n_obs2[0]"),
        (("sweep",), {"side_length": [0.01, math.inf]}, "sweep.side_length"),
        (("sweep", "snr2", "num"), 10.9, "sweep.snr2.num"),
    ])
    def test_sweep_error_names_the_config_file(self, tmp_path, capsys, path,
                                               value, key):
        config = _mutated_fig9(tmp_path, path, value)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {config}: {key}: ")

    def test_negative_voltage_runs(self, tmp_path):
        config = _mutated_fig9(tmp_path, ("constants", "voltage"), -10.0)
        obs = tmp_path / "obs"
        assert main(["synthesize", "--config", str(config),
                     "--out", str(obs)]) == 0
        assert main(["posterior", "--config", str(config),
                     "--obs", str(obs / "observations_field1.csv"),
                     "--obs", str(obs / "observations_field2.csv"),
                     "--grid", "20", "--out", str(tmp_path / "post")]) == 0
        currents = observations_from_csv(obs / "observations_field2.csv")
        assert np.all(currents.values < 0)

    @pytest.mark.parametrize("command", ["synthesize", "posterior", "sweep"])
    @pytest.mark.parametrize("key,values", [
        ("mean", [math.nan, 0.3]),
        ("mean", [math.inf, 0.3]),
        ("sd", [2e3, math.inf]),
        ("sd", [math.nan, 0.15]),
        ("sd", [-2e3, 0.15]),
        ("sd", [2e3, 0.0]),
    ])
    def test_prior_value_exits_2(self, tmp_path, capsys, command, key,
                                 values):
        config = _mutated_fig9(tmp_path, ("prior", key), values)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"prior.{key}: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "posterior", "sweep"])
    def test_prior_box_without_mass_exits_2(self, tmp_path, capsys, command):
        # E in 90-110 prior SDs above the mean: the box's normal CDF
        # difference underflows to 0 in double precision
        config = _mutated_fig9(tmp_path, ("prior",), {
            "mean": [10e3, 0.3], "sd": [2e3, 0.15],
            "lower": [190e3, 0.0], "upper": [230e3, 0.5]})
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "prior: " in err and "probability mass" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("upper", [math.inf, 126.8e3])
    @pytest.mark.parametrize("command,flags", [
        ("synthesize", []), ("posterior", ["--grid", "20"]),
        ("posterior", ["--grid", "100"]), ("sweep", [])])
    def test_prior_box_with_subnormal_mass_exits_2(self, tmp_path, capsys,
                                                   command, flags, upper):
        # E from 38.4 prior SDs above the mean: the box's partition is a
        # subnormal double, too coarse to spread a grid axis over
        data = yaml.safe_load((CONFIG_DIR / "fig9.yaml").read_text())
        data["prior"]["lower"] = [86.8e3, 0.0]
        data["prior"]["upper"] = [upper, 0.5]
        data["truth"] = [87e3, 0.35]
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), *flags,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "prior: " in err and "probability mass" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()


class TestConfigValueRules:
    @pytest.mark.parametrize("path,value,key", [
        (("fields", 0, "id"), "1", "fields[0].id"),
        (("fields", 0, "count"), "3", "fields[0].count"),
        (("grid", 0), "3", "grid[0]"),
        (("workers",), "3", "workers"),
        (("sweep", "snr2", "num"), "3", "sweep.snr2.num"),
        (("sweep", "n_obs2"), [2, "3"], "sweep.n_obs2[1]"),
    ])
    def test_quoted_integer_exits_2(self, tmp_path, capsys, path, value,
                                    key):
        # one integer rule for every integer key: a string is no integer
        config = _mutated_fig9(tmp_path, path, value)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: {key}: expected an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [None, [1]])
    def test_output_dir_must_be_a_string(self, tmp_path, capsys,
                                         monkeypatch, value):
        config = _mutated_fig9(tmp_path, ("output_dir",), value)
        monkeypatch.chdir(tmp_path)
        assert main(["synthesize", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {config}: output_dir: expected a string")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    @pytest.mark.parametrize("fields,ids", [([], "[]"), ([1], "[2]")])
    @pytest.mark.parametrize("command", ["sweep", "synthesize", "posterior"])
    def test_sweep_without_field_1_names_fields(self, tmp_path, capsys,
                                                command, fields, ids):
        data = yaml.safe_load((CONFIG_DIR / "fig9.yaml").read_text())
        data["fields"] = [data["fields"][i] for i in fields]
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(config),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: fields: no field 1 configured; the ids are "
            f"{ids}\n")
        assert not out.exists()


def test_config_import_loads_no_sweep():
    # the run schema lives in mfbia.config; the sweep engine depends on it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mfbia.config; print('mfbia.sweep' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


class TestWorkersFlag:
    @pytest.mark.parametrize("command,workers", [
        (["sweep"], "-3"), (["sweep"], "0"), (["reproduce", "fig10"], "0")])
    def test_bad_workers_exits_2(self, tmp_path, capsys, command, workers):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--workers", workers, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,named", [
        (["--full"], "--full"), (["--workers", "3"], "--workers"),
        (["--full", "--workers", "3"], "--full")])
    def test_fig9_flag_exits_2(self, tmp_path, capsys, flags, named):
        assert main(["reproduce", "fig9", *flags, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert not any(tmp_path.iterdir())


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test oracle only; the runtime never imports it
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import mfbia.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "code = mfbia.cli.main(['reproduce', 'fig9', '--out', sys.argv[1]])\n"
        "print(code, loaded())\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []"), proc.stdout


def test_cli_import_loads_no_yaml_parser():
    # only a command that reads a config file needs one
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mfbia.cli; print('yaml' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_loads_no_hashlib():
    # hashlib loads libcrypto; only the posterior provenance hashes need it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mfbia.cli; print('hashlib' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_loads_no_reference_solver():
    # only the tests run the coupled systems' Newton solver
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mfbia.cli; print('mfbia.coupled' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_cli_import_keeps_blas_to_one_thread(preset, expected):
    # mfbia runs its parallel work itself; a preset value is the user's
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, mfbia.cli\n"
         "tasks = '/proc/self/task'\n"
         "print(os.environ['OPENBLAS_NUM_THREADS'],\n"
         "      len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    variable, threads = proc.stdout.split()
    assert variable == expected
    if preset is None:
        assert threads == "1"


def test_provenance_hashes_are_stable():
    # sidecars written by earlier versions must stay comparable by riig
    config = default_config()
    model = build_model(config.model, config.constants)
    obs = synthesize_observations(model, np.array(config.truth), 1,
                                  np.linspace(0.0, 0.4, 4), 50.0)
    assert cli._prior_hash(config.prior) == \
        "a698069864f0cc48f2c4d64b8e83b76d4995b4e0d133ac165598f8e4a5b49ebf"
    assert cli._observations_hash(None) == \
        "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"
    assert cli._observations_hash(obs) == \
        "4f0d23c3378823647f494d968343d361fd095c9ca99b84098a547525e4226efd"


def test_sweep_axes_load_no_numpy_ma():
    # integer axes are rounded without np.unique, which imports numpy.ma
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from mfbia.config import default_config\n"
         "config = default_config(full=True)\n"
         "print(config.sweep['n_obs2'], 'numpy.ma' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False", proc.stdout


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    project = pyproject["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def test_readme_cli_synopsis_matches_parser():
    # the README's synopsis block names every flag of every command, and
    # no flag the parser lacks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    documented = {}
    command = None
    for line in block.splitlines():
        if line.startswith("mfbia"):
            words = line.split()
            command = words[1] if words[1].isalpha() else ""
        documented.setdefault(command, set()).update(
            re.findall(r"--[a-z][a-z-]*", line))
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    actual = {"": _flags(parser),
              **{name: _flags(sub) for name, sub in commands.items()}}
    assert documented == actual
