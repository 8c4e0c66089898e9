"""Start-up: help, usage errors and the package import load no numpy.

Each check runs in a fresh interpreter, since this test session has long
since imported numpy and every layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conformal_gate

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the exit code of ``main(argv)`` and the numpy and conformal_gate
# modules loaded by then, as the last line of stdout.
CLI_PROBE = """
import json, sys
from conformal_gate.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] in ("numpy", "conformal_gate"))]))
"""

# Imports the package, then resolves its names lazily, then by ``import *``.
PACKAGE_PROBE = """
import json, sys
import conformal_gate
before = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "conformal_gate"))
listed = set(conformal_gate.__all__) <= set(dir(conformal_gate))
namespace = {}
exec("from conformal_gate import *", namespace)
star = sorted(name for name in namespace if name != "__builtins__")
try:
    conformal_gate.no_such_name
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, listed, star, missing]))
"""


# Imports the package alone, then reaches a function through each layer
# submodule as an attribute, as ``conformal_gate.io.write_curve``.
LAYER_PROBE = """
import json
import conformal_gate
assert callable(conformal_gate.io.write_curve)
print(json.dumps([getattr(conformal_gate, m).__name__ for m in conformal_gate._LAYERS]))
"""


def run_probe(code: str, *argv: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    (["calibrate", "--help"], 0),
    (["calibrate"], 3),  # required flags missing
    (["no-such-command"], 3),
    (["evaluate", "--input", "t.csv", "--out-json", "r.json", "--out-csv", "r.csv"], 3),
])
def test_parser_path_loads_no_numpy_and_no_layer(argv, exit_code):
    code, loaded = run_probe(CLI_PROBE, *argv)
    assert code == exit_code
    assert loaded == ["conformal_gate", "conformal_gate.cli"]


def test_a_command_loads_the_layers_it_runs(tmp_path):
    code, loaded = run_probe(CLI_PROBE, "simulate", "--k", "3", "--n-calib", "20", "--n-test",
                             "20", "--seeds", "1", "--out", str(tmp_path / "trial.json"))
    assert code == 0
    assert "numpy" in loaded
    assert {f"conformal_gate.{m}" for m in ("io", "calibration", "core_types", "predictor",
                                            "metrics", "synth", "rng")} <= set(loaded)


def test_package_names_load_on_first_use():
    before, listed, star, missing = run_probe(PACKAGE_PROBE)
    assert before == ["conformal_gate"]
    assert listed
    assert star == sorted(conformal_gate.__all__)
    assert missing == "module 'conformal_gate' has no attribute 'no_such_name'"


def test_layer_submodules_resolve_as_attributes():
    loaded = run_probe(LAYER_PROBE)
    assert loaded == [f"conformal_gate.{m}" for m in conformal_gate._LAYERS]


@pytest.mark.parametrize("name", conformal_gate.__all__)
def test_every_top_level_name_is_its_submodule_object(name):
    value = getattr(conformal_gate, name)
    assert getattr(sys.modules[value.__module__], name) is value
    assert value.__module__.startswith("conformal_gate.")
