"""Pinned sha256 of the artifacts the CLI writes.

Each command runs through ``cli.main`` into a fresh directory, and every
file listed for it must hash to its pin.  A change that moves bits on
purpose updates the pin here and says which artifacts moved and why.  The
pins hold for the numpy and libm the suite was pinned with; they are not
expected to survive a change of either.
"""

import hashlib
from pathlib import Path

import pytest

from mfbia.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

#: name -> (command, {file under the output directory: sha256})
GOLDEN = {
    "fig9": (["reproduce", "fig9"], {
        "fig9/observations_field1.csv":
            "c5ccff8c1c5c4253515ef0e9925cfa9566f4661cac898ce6a69adb15b79bf23a",
        "fig9/observations_field2_middle.csv":
            "32b198c94b8345791136efa855a4a1c06ba4d08d16a49f0721041222d95ec3a7",
        "fig9/observations_field2_right.csv":
            "87c85a2b882e29e497c8f27d14d0cecbebec9f554b48b5ae581bf8fc2aa0b137",
        "fig9/posterior_single.csv":
            "ffff72bf2c084ee19425b569aebbb43a48ab67ed996f8a09b84fe07a959f274a",
        "fig9/posterior_single.json":
            "023932317b0258c0a0128388b3b0c0940b99ba9621cc177c81b3af8b8cf70743",
        "fig9/posterior_multi_middle.csv":
            "297a1f01d6b1128056b440533f613b1601e8cf943624e127698cecdcb4d90889",
        "fig9/posterior_multi_middle.json":
            "8ec0c58737e4970b5ca6740937212f98d78d511702a8f26db7ab9d65596ee3b0",
        "fig9/posterior_multi_right.csv":
            "3cb2571deded008ce5c91b0f95926700458f0bdd826c3efbf8f33f4713cb47e6",
        "fig9/posterior_multi_right.json":
            "f402b1fd3c60a3b668a1263309c826549fe57cabc815e90cd20ca89999dcb9e3",
        "fig9/summary.csv":
            "49d0232f6487af17bceb65873a8666220249f5ea2360510a9c9bdff205163478",
    }),
    "fig10": (["reproduce", "fig10"], {
        "fig10/sweep.csv":
            "30347bf6e0dc363ccbae2b5fe59152200f67fd76c853c1b91c4e9501f6e757bf",
        "fig10/summary.csv":
            "0935ca5209bb6b76cb1aacf6c8260f435bd0a4fdaa2b82d33ffc2d25b058107d",
    }),
    "fig10-full-workers2": (["reproduce", "fig10", "--full",
                             "--workers", "2"], {
        "fig10/sweep.csv":
            "56fd80321c678a580fb8ec554cbd28add1d391fd4cf057f72cee51f9f4deff73",
        "fig10/summary.csv":
            "0935ca5209bb6b76cb1aacf6c8260f435bd0a4fdaa2b82d33ffc2d25b058107d",
    }),
    "toyfull-coupling": (["sweep", "--config",
                          str(CONFIG_DIR / "toyfull_coupling.yaml"),
                          "--workers", "2"], {
        "sweep.csv":
            "a932de1ce56019fafa9f112db13b0108790334ff6c804a77aa26c67ae7aec6fb",
    }),
    "toyfull-synthesize": (["synthesize", "--config",
                            str(CONFIG_DIR / "toyfull_coupling.yaml")], {
        "observations_field1.csv":
            "ed45539f05f017b1aaf421236a0de896c24ce571c9aabd1d6de926b71edaee8b",
        "observations_field2.csv":
            "aa910fbc973741537e51caed28df4c8e740b4ed83947a4c4eab205799a9cb3b8",
    }),
    "posterior-grid60": (["posterior", "--grid", "60"], {
        "posterior_fnone.csv":
            "4a01e20465200a73aa9479d57c3c132b2ad32d5492fc184bb342b29b04dbbac9",
        "posterior_fnone.json":
            "ffffa2f468d4a3fa5006f67654725a83a325254a4209d620c9aa0ac70b59e657",
    }),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_artifact_bytes(tmp_path, name):
    command, pins = GOLDEN[name]
    assert main([*command, "--out", str(tmp_path)]) == 0
    digests = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
               for path in pins}
    assert digests == pins
