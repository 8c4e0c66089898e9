"""Start-up and exit: what each invocation imports, and where the heap is frozen.

Help, usage errors and the package import load no numpy; a command loads
only the layers it runs; the console entry, ``main()``, turns the collector
off while the layers load, freezes the import-time heap and turns the
collector back on for the command, and ``main(argv)`` leaves it alone.  Most
checks run in a fresh interpreter, since this test session has long since
imported numpy and every layer.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conformal_gate
from conformal_gate.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Calls ``main()`` as the console script does, then prints its exit code,
# the numpy and conformal_gate modules loaded by then, the collector's
# freeze count, which of logging, json and pathlib the call added to those
# loaded at the probe's start, which of them were loaded already, and
# whether the collector was enabled as each command body ran, as the last
# line of stdout.  The difference is taken because ``site`` may load
# pathlib (a ``.pth`` hook can), and the probe imports json only after it
# has looked.
CLI_PROBE = """
import gc, sys
start = set(sys.modules)
from conformal_gate import cli
enabled = []
def spy(command):
    return lambda args: enabled.append(gc.isenabled()) or command(args)
cli._COMMANDS.update({name: spy(command) for name, command in cli._COMMANDS.items()})
try:
    code = cli.main()
except SystemExit as exc:
    code = exc.code
added = [m for m in ("logging", "json", "pathlib") if m in sys.modules and m not in start]
preloaded = [m for m in ("logging", "json", "pathlib") if m in start]
import json
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] in ("numpy", "conformal_gate")),
                  gc.get_freeze_count(), added, preloaded, enabled]))
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


# The console script, and a library caller that passes its argv.
CONSOLE = "import sys; from conformal_gate.cli import main; sys.exit(main())"
LIBRARY = "import sys; from conformal_gate.cli import main; sys.exit(main(sys.argv[1:]))"


def run_child(code: str, *argv: str, cwd: Path | None = None,
              log: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CONFORMAL_GATE_LOG", None)
    if log is not None:
        env["CONFORMAL_GATE_LOG"] = log
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def run_probe(code: str, *argv: str) -> list:
    done = run_child(code, *argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small calibration/test split, its artifact and its prediction sets."""
    work = tmp_path_factory.mktemp("startup")
    assert main(["simulate", "--k", "3", "--n-calib", "40", "--n-test", "30", "--seeds", "1",
                 "--out", str(work / "trial.json"), "--write-data", str(work)]) == 0
    assert main(["calibrate", "--input", str(work / "calibration.csv"),
                 "--out", str(work / "artifact.json")]) == 0
    assert main(["predict", "--calibration", str(work / "artifact.json"),
                 "--input", str(work / "test.csv"), "--out", str(work / "sets.jsonl")]) == 0
    return work


def command_argv(command: str, work: Path) -> list[str]:
    test, out = str(work / "test.csv"), str(work / "out")
    return {
        "calibrate": ["calibrate", "--input", str(work / "calibration.csv"),
                      "--out", out, "--curve", out + ".csv"],
        "predict": ["predict", "--calibration", str(work / "artifact.json"),
                    "--input", test, "--out", out],
        "evaluate": ["evaluate", "--calibration", str(work / "artifact.json"), "--input", test,
                     "--out-json", out, "--out-csv", out + ".csv"],
        "evaluate_sets": ["evaluate", "--predictions", str(work / "sets.jsonl"), "--input", test,
                          "--out-json", out, "--out-csv", out + ".csv"],
        "simulate": ["simulate", "--k", "3", "--n-calib", "20", "--n-test", "20", "--seeds", "1",
                     "--out", out],
    }[command]


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    (["calibrate", "--help"], 0),
    (["calibrate"], 3),  # required flags missing
    (["no-such-command"], 3),
    (["evaluate", "--input", "t.csv", "--out-json", "r.json", "--out-csv", "r.csv"], 3),
    (["evaluate", "--calibration", "a.json", "--predictions", "p.jsonl", "--input", "t.csv",
      "--out-json", "r.json", "--out-csv", "r.csv"], 3),
    (["calibrate", "--input", "c.csv", "--out", "a.json", "--curve", ""], 3),
])
def test_parser_path_loads_no_numpy_and_no_layer(argv, exit_code):
    code, loaded, frozen, added, preloaded, enabled = run_probe(CLI_PROBE, *argv)
    assert code == exit_code
    assert loaded == ["conformal_gate", "conformal_gate.cli"]
    assert frozen == 0  # returned before the freeze
    assert enabled == []  # and before any command body
    assert added == []  # no logging, json or pathlib either
    if {"logging", "json"} & set(preloaded):
        pytest.skip(f"the interpreter loaded {preloaded} before the probe; added shows nothing")


CALIBRATE_LAYERS = ("io", "calibration", "core_types")
LAYERS_RUN = {
    "calibrate": CALIBRATE_LAYERS,
    "predict": (*CALIBRATE_LAYERS, "predictor"),
    "evaluate": (*CALIBRATE_LAYERS, "predictor", "metrics"),
    "evaluate_sets": (*CALIBRATE_LAYERS, "predictor", "metrics"),
    "simulate": conformal_gate._LAYERS,
}


def test_a_command_loads_the_layers_it_runs(files):
    for command, layers in LAYERS_RUN.items():
        code, loaded, frozen, _, _, enabled = run_probe(CLI_PROBE, *command_argv(command, files))
        assert code == 0
        assert "numpy" in loaded
        assert [m for m in loaded if not m.startswith("numpy")] == sorted(
            ["conformal_gate", "conformal_gate.cli", *(f"conformal_gate.{m}" for m in layers)])
        assert frozen > 0
        assert enabled == [True]  # off only while the layers load


# Whether a command imported hashlib, which loads OpenSSL: only the digests
# of an artifact's input and universe need it.
HASHLIB_PROBE = """
import json, sys
from conformal_gate.cli import main
print(json.dumps([main(sys.argv[1:]), "hashlib" in sys.modules]))
"""


@pytest.mark.parametrize("command, hashes", [
    ("evaluate_sets", False), ("simulate", False), ("calibrate", True),
])
def test_only_a_command_that_digests_loads_hashlib(files, command, hashes):
    assert run_probe(HASHLIB_PROBE, *command_argv(command, files)) == [0, hashes]


def test_main_with_argv_leaves_the_collector_alone(files):
    before = gc.get_freeze_count()
    assert main(command_argv("calibrate", files)) == 0
    assert gc.get_freeze_count() == before


# 30 rows of three classes; s7, on line 9, is off unit mass by 1e-4, so it
# is renormalized with a WARNING.
OFF_MASS = "".join(f"s{i},{i % 3},0.5,0.25,0.25\n" for i in range(30)).replace(
    "s7,1,0.5,", "s7,1,0.5001,")
INVALID = "s0,0,0.5,0.25,0.25\ns1,1,0.5,oops,0.25\n"
EVALUATE_ALONE = ["evaluate", "--input", "d.csv", "--out-json", "r.json", "--out-csv", "r.csv"]
WARNED = "WARNING conformal_gate.core_types: renormalizing 1 probability vector(s)"


@pytest.mark.parametrize("rows, argv, exit_code, stderr_has", [
    (OFF_MASS, ["calibrate", "--input", "d.csv", "--out", "a.json", "--curve", "c.csv"], 0,
     WARNED),
    (INVALID, ["calibrate", "--input", "d.csv", "--out", "a.json"], 2, "error: line 3"),
    (OFF_MASS, EVALUATE_ALONE, 3,
     "error: one of the arguments --calibration --predictions is required"),
], ids=["warning", "data-error", "usage-error"])
def test_console_entry_and_main_argv_give_the_same_results(tmp_path, rows, argv, exit_code,
                                                           stderr_has):
    results = []
    for code in (CONSOLE, LIBRARY):
        work = tmp_path / str(len(results))
        work.mkdir()
        (work / "d.csv").write_text("sample_id,true_label,p_0,p_1,p_2\n" + rows)
        done = run_child(code, *argv, cwd=work)
        outputs = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
        results.append((done.returncode, done.stdout, done.stderr, outputs))
    assert results[0] == results[1]
    code, _, stderr, _ = results[0]
    assert code == exit_code
    assert stderr_has in stderr


MISMATCH = ("WARNING conformal_gate.cli: test file universe differs from the one used at"
            " calibration; proceeding with the artifact threshold\n")


# The artifact was calibrated without names; these three differ from the
# default ones, so the universe digests differ while k agrees.
@pytest.mark.parametrize("log, stderr", [(None, MISMATCH), ("error", "")])
def test_console_entry_prints_the_universe_mismatch_warning(files, tmp_path, log, stderr):
    (tmp_path / "classes.json").write_text(
        '[{"index": 0, "name": "a"}, {"index": 1, "name": "b"}, {"index": 2, "name": "c"}]')
    done = run_child(CONSOLE, "predict", "--calibration", str(files / "artifact.json"),
                     "--input", str(files / "test.csv"), "--classes", "classes.json",
                     "--out", "sets.jsonl", cwd=tmp_path, log=log)
    assert done.returncode == 0
    assert done.stderr == stderr


# BASIC_FORMAT is an upper-case attribute of ``logging`` that is no level.
@pytest.mark.parametrize("name, shown", [
    ("basic_format", True), ("no_such_level", True), ("error", False),
])
def test_a_log_name_that_is_no_level_falls_back_to_warning(tmp_path, name, shown):
    assert run_child(CONSOLE, "--help", log=name).returncode == 0
    (tmp_path / "d.csv").write_text("sample_id,true_label,p_0,p_1,p_2\n" + OFF_MASS)
    done = run_child(CONSOLE, "calibrate", "--input", "d.csv", "--out", "a.json",
                     cwd=tmp_path, log=name)
    assert done.returncode == 0
    assert done.stderr.startswith(WARNED) is shown


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
