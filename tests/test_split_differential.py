"""``io.split`` against the split with Python index lists it replaced.

Datasets hold 0-40 rows over K = 2-5 classes, with labels drawn from
``[-1, K]`` (a Dataset stores labels outside ``[0, K)`` as violations), and
specs hold 1-3 parts, plain or stratified.  ``split`` must give the same
part names in the same order, the same ids, the same labels and
probabilities bit for bit, and the same empty-part warnings as
``row_oracle.split_lists``.
"""

from __future__ import annotations

import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate.core_types import ClassUniverse, Dataset
from conformal_gate.io import SplitSpec, split

from row_oracle import split_lists


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def run_logged(fn, *args):
    """The result of ``fn(*args)`` and the messages ``conformal_gate.io`` logged meanwhile."""
    logger = logging.getLogger("conformal_gate.io")
    handler = _Records()
    logger.addHandler(handler)
    try:
        return fn(*args), handler.messages
    finally:
        logger.removeHandler(handler)


@st.composite
def cases(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    labels = draw(st.lists(st.integers(-1, k), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(k), size=n).reshape(n, k)
    dataset = Dataset(ClassUniverse.generic(k), [f"s{i}" for i in range(n)], labels, probs)
    raw = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    fractions = tuple((f"part{i}", w / sum(raw)) for i, w in enumerate(raw))
    spec = SplitSpec(fractions, seed=draw(st.integers(0, 2**64 - 1)),
                     stratified=draw(st.booleans()))
    return dataset, spec


@settings(max_examples=300, deadline=None)
@given(cases())
def test_split_matches_the_list_oracle(case):
    dataset, spec = case
    parts, warnings = run_logged(split, dataset, spec)
    expected, expected_warnings = run_logged(split_lists, dataset, spec)
    assert list(parts) == list(expected)
    for name, part in parts.items():
        assert part.ids == expected[name].ids
        assert part.labels.tobytes() == expected[name].labels.tobytes()
        assert part.probs.tobytes() == expected[name].probs.tobytes()
    assert warnings == expected_warnings
