"""Columnar Dataset construction against the per-row oracle in ``row_oracle``.

Rows are drawn in every band of the mass policy: exact masses one grid step
below, at and above each tolerance (1e-9, 1e-6, 1e-3) on either side of 1,
random rows scaled into each band, NaN and infinite entries, entries outside
[0, 1], out-of-range labels and duplicate ids.  Stored probabilities must be
bit-identical, the violation lists equal in content and order, and the one
renormalization warning must count the rows the oracle warns about.

The construction clears rows by ``np.sum`` and runs ``math.fsum`` only on the
rest, so rows are also drawn with masses near the screen's edges, at
``tol / 2`` and ``tol`` less the K-dependent margin, for K up to 2,000.
"""

from __future__ import annotations

import logging
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate.core_types import ClassUniverse, Dataset

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
    assert list(dataset.violations) == validate_examples(examples, k)
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
             [0.4, 0.4, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0],
             [1e17, 1.0, -1e17, 1.0],  # np.sum gives 1.0, fsum 2.0
             [1e17, 16.0 - 1e17, -14.9995, 0.0]]  # mass 1.008 after renormalizing
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


def screen_edge_masses(k: int) -> list[float]:
    """Deviations from 1 a few grid steps around each edge of the np.sum screen."""
    deviations = []
    for tol in TOLERANCES:
        for edge in (tol, tol / 2, tol / 2 - k * 2.0**-52):
            for sign in (1.0, -1.0):
                deviations.extend(sign * edge + j * 2.0**-52 for j in range(-4, 5))
    return deviations


@st.composite
def wide_datasets(draw):
    """Rows of up to 2,000 dense entries scaled to a mass near a screen edge."""
    k = draw(st.sampled_from([2, 3, 10, 100, 500, 1999, 2000]))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        raw = rng.random(k) ** draw(st.sampled_from([1, 8]))  # dense or a few large entries
        deviation = draw(st.sampled_from(screen_edge_masses(k)))
        rows.append((raw / math.fsum(raw.tolist()) * (1.0 + deviation)).tolist())
    ids = [f"r{i}" for i in range(n)]
    return k, ids, [0] * n, rows


@settings(max_examples=200, deadline=None)
@given(wide_datasets())
def test_rows_near_the_screen_edges_match_the_row_oracle(data):
    check_against_oracle(*data)


def test_rows_where_np_sum_and_fsum_straddle_a_tolerance():
    """Dense K = 2000 rows whose np.sum and fsum fall on either side of a tolerance.

    A screen that trusted ``|np.sum - 1| <= 1e-9`` would leave the rows whose
    fsum is beyond 1e-9 unrenormalized; at least one such row is included.
    """
    k, rows, kinds = 2000, [], set()
    for tol in TOLERANCES:
        for sign in (1.0, -1.0):
            wanted = {True, False}  # np.sum inside the tolerance, or fsum inside
            for seed in range(400):
                raw = np.random.default_rng(seed).random(k)
                base = raw / math.fsum(raw.tolist())
                for j in range(-16, 17):
                    row = base * (1.0 + sign * tol + j * 2.0**-52)
                    by_sum = abs(row.sum() - 1.0) <= tol
                    if by_sum in wanted and by_sum != (abs(math.fsum(row.tolist()) - 1.0) <= tol):
                        wanted.discard(by_sum)
                        kinds.add((tol, by_sum))
                        rows.append(row.tolist())
                if not wanted:
                    break
    assert (TOLERANCES[0], True) in kinds
    check_against_oracle(k, [f"r{i}" for i in range(len(rows))], [0] * len(rows), rows)
