"""The README's Python examples run, and its names are the package's top level."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import conformal_gate
from conformal_gate.io import write_dataset
from conformal_gate.synth import SyntheticSpec, generate

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_dataset(generate(SyntheticSpec(k=9, seed=1), 400), "probs.csv")  # the quick start's input
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("name", conformal_gate.__all__)
def test_every_top_level_name_is_documented(name):
    assert re.search(rf"\b{name}\b", README)
