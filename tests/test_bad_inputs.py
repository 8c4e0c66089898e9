"""Bad input files through the CLI, against a manifest of exit codes and stderr.

Each case in ``data/bad_inputs.json`` is an input file's name and text and
the command that reads it: ``calibrate`` on a dataset JSONL or a dataset
CSV, ``evaluate --predictions`` on a prediction JSONL over the three-class
``d.csv`` below, or ``calibrate`` with a classes.json.  Files that are not
UTF-8 cannot be held in the manifest's text; ``test_io.py`` covers them.  The command must exit with the recorded code and print the
recorded stderr.  Where Python words the end of a message itself (a JSON
decode error, the recursion depth or digit limit, a TypeError), ``prefix``
is set and the recorded stderr stops where Python's part begins.  A command
that exits 2 leaves no file besides its inputs.

The manifest is data, not output: the test never writes it.  A changed
message shows as a failing case, and the manifest is edited by hand to the
new text.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conformal_gate.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "bad_inputs.json").read_text("utf-8"))
SAMPLES = "sample_id,true_label,p_0,p_1,p_2\na,2,0,0,1\nb,0,1,0,0\nc,1,0,1,0\n"


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_exit_code_and_stderr_are_as_recorded(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text(SAMPLES, encoding="utf-8")
    (tmp_path / case["file"]).write_bytes(case["text"].encode("utf-8"))
    inputs = sorted(tmp_path.iterdir())
    assert main(case["argv"]) == case["exit"]
    err = capsys.readouterr().err
    if case.get("prefix"):
        assert err.startswith(case["stderr"]) and err.endswith("\n")
    else:
        assert err == case["stderr"]
    if case["exit"] == 2:
        assert sorted(tmp_path.iterdir()) == inputs
