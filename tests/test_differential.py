"""Columnar Dataset construction against the per-row oracle in ``row_oracle``.

Rows are drawn in every band of the mass policy: exact masses one grid step
below, at and above each tolerance (1e-9, 1e-6, 1e-3) on either side of 1,
random rows scaled into each band, NaN and infinite entries, entries outside
[0, 1], out-of-range labels and duplicate ids.  Stored probabilities must be
bit-identical, the violation lists equal in content and order, and the one
renormalization warning must count the rows the oracle warns about.
"""

from __future__ import annotations

import logging
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate import ClassUniverse, Dataset, validate_dataset

from row_oracle import LabeledExample, ProbVector, validate_examples

TOLERANCES = (1e-9, 1e-6, 1e-3)
SPLITS = (0.5, 0.25, 0.125)


def exact_mass_row(k: int, mass: float, split: float, first: int, second: int) -> list[float]:
    """A row whose entries sum exactly to ``mass``: split + (mass - split)."""
    row = [0.0] * k
    row[first] = split
    row[second] += mass - split
    return row


def boundary_masses() -> list[float]:
    """Masses whose deviation from 1 is a grid point next to a tolerance.

    Above 1 the deviation moves in steps of 2**-52, below 1 in steps of
    2**-53; the nearest grid point to each tolerance and its two neighbours
    put at least one mass on each side of the boundary.
    """
    masses = []
    for tol in TOLERANCES:
        for step, sign in ((2.0**-52, 1.0), (2.0**-53, -1.0)):
            nearest = round(tol / step)
            masses.extend(1.0 + sign * j * step for j in (nearest - 1, nearest, nearest + 1))
    return masses


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def check_against_oracle(k: int, ids, labels, rows) -> None:
    handler = _Messages()
    logger = logging.getLogger("conformal_gate")
    logger.addHandler(handler)
    try:
        dataset = Dataset(ClassUniverse.generic(k), ids, labels,
                          np.array(rows, dtype=np.float64).reshape(len(rows), k))
    finally:
        logger.removeHandler(handler)
    examples = [LabeledExample(sid, label, ProbVector(tuple(row)))
                for sid, label, row in zip(ids, labels, rows)]
    expected = np.array([ex.probs.values for ex in examples], dtype=np.float64)
    assert dataset.probs.tobytes() == expected.reshape(len(rows), k).tobytes()
    assert validate_dataset(dataset) == validate_examples(examples, k)
    assert all(dataset.ids[v.row] == v.sample_id for v in dataset.violations)

    warned = [i for i, ex in enumerate(examples) if ex.probs.warned]
    if warned:
        [message] = handler.messages
        count, first = re.fullmatch(r"renormalizing (\d+) .* first at rows ([\d, ]+)",
                                    message).groups()
        assert int(count) == len(warned)
        assert first == ", ".join(map(str, warned[:5]))
    else:
        assert handler.messages == []


def test_every_band_boundary_matches_the_oracle():
    k = 4
    rows = []
    for mass in boundary_masses():
        for split in SPLITS:
            rows.append(exact_mass_row(k, mass, split, 0, 2))
        rows.append(exact_mass_row(k, mass, 0.0, 1, 3))  # the whole mass in one entry
    deviations = [abs(math.fsum(row) - 1.0) for row in rows]
    for tol in TOLERANCES:  # the rows straddle each boundary
        assert any(d < tol for d in deviations) and any(d > tol for d in deviations)
    rows += [[math.nan, 0.5, 0.5, 0.0], [math.inf, 0.0, 0.0, 0.0], [0.5, -math.inf, 0.5, 0.0],
             [1.2, -0.2, 0.0, 0.0], [1.0000005, 0.0, 0.0, 0.0], [-1e-7, 1.0, 0.0, 0.0],
             [0.4, 0.4, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]]
    ids = [f"s{i}" for i in range(len(rows))]
    ids[5] = ids[2]  # a duplicate
    labels = [i % (k + 2) - 1 for i in range(len(rows))]  # -1 and k are out of range
    check_against_oracle(k, ids, labels, rows)


def band_row(k: int):
    """One row of length k from any band of the policy, or an invalid one."""
    unit = st.floats(0.0, 1.0)
    positions = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
    boundary = st.builds(
        lambda mass, split, where: exact_mass_row(k, mass, split, *where),
        st.sampled_from(boundary_masses()), st.sampled_from(SPLITS + (0.0,)), positions,
    )
    deviation = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1e-6, 1e-6),
                          st.floats(-1e-3, 1e-3), st.floats(-0.5, 0.5))

    def scaled(raw, d):
        total = math.fsum(raw)
        return [v / total * (1.0 + d) for v in raw] if total > 0 else raw

    scaled_rows = st.builds(scaled, st.lists(unit, min_size=k, max_size=k), deviation)
    non_finite = st.builds(
        lambda raw, where, bad: raw[:where] + [bad] + raw[where + 1:],
        st.lists(unit, min_size=k, max_size=k), st.integers(0, k - 1),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    outside = st.lists(st.floats(-2.0, 3.0), min_size=k, max_size=k)
    return st.one_of(boundary, scaled_rows, non_finite, outside)


@st.composite
def datasets(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(band_row(k), min_size=n, max_size=n))
    ids = draw(st.lists(st.sampled_from("abcdefghijklmnop"), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(-1, k), min_size=n, max_size=n))
    return k, ids, labels, rows


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_construction_matches_the_row_oracle(data):
    check_against_oracle(*data)
