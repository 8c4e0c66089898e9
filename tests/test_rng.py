"""Determinism contracts of the embedded splitmix64 streams.

The scalar, stateful splitmix64 below is the test oracle for the vectorized
``output_block`` and for the shuffle that ``split`` draws from it.
"""

from __future__ import annotations

import numpy as np
import pytest

from conformal_gate.io import SplitSpec, largest_remainder_sizes, split
from conformal_gate.rng import GOLDEN, MASK64, nth_output, output_block
from conformal_gate.synth import SyntheticSpec, generate


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar stateful view of the stream, one Python-int output per call."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, m: int) -> int:
        """Integer in [0, m); m must be positive."""
        if m <= 0:
            raise ValueError("bound must be positive")
        return ((self.next_u64() >> 11) * m) >> 53


def scalar_shuffle(n: int, seed: int) -> list[int]:
    """Fisher-Yates with one scalar bounded draw per swap."""
    indices = list(range(n))
    stream = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = stream.next_below(i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    return indices


def uniform_block(seed: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) from output_block, as ``synth.generate`` draws them."""
    return (output_block(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_scalar_and_vector_paths_are_bit_identical():
    for seed in (0, 1, 42, 2**63, MASK64):
        block = output_block(seed, 257)
        for i in (0, 1, 5, 100, 256):
            assert int(block[i]) == nth_output(seed, i)
            assert int(block[i]) == mix64(seed + (i + 1) * GOLDEN)


def test_stateful_stream_matches_indexed_outputs():
    stream = SplitMix64(12345)
    assert [stream.next_u64() for _ in range(20)] == [
        nth_output(12345, i) for i in range(20)
    ]


def test_uniform_block_matches_scalar_floats():
    stream = SplitMix64(7)
    block = uniform_block(7, 100)
    scalars = [stream.next_float() for _ in range(100)]
    assert block.tolist() == scalars


def test_uniforms_lie_in_unit_interval():
    u = uniform_block(99, 100_000)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_next_below_respects_bound():
    stream = SplitMix64(3)
    draws = [stream.next_below(7) for _ in range(10_000)]
    assert min(draws) == 0
    assert max(draws) == 6


def test_block_offsets_compose():
    whole = output_block(11, 50)
    head = output_block(11, 20)
    tail = output_block(11, 30, start=20)
    assert np.array_equal(whole, np.concatenate([head, tail]))


def test_mix64_stays_in_64_bits():
    assert 0 <= mix64(MASK64) <= MASK64
    assert mix64(0) != mix64(1)


@pytest.mark.parametrize("n", [2049, 3000, 5003])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_split_matches_the_scalar_shuffle(n, seed):
    # above 2048 rows the bounded draw's product no longer fits in uint64
    data = generate(SyntheticSpec(k=3, seed=n), n)
    parts = split(data, SplitSpec((("a", 0.3), ("b", 0.7)), seed=seed))
    order = scalar_shuffle(n, seed)
    cut = largest_remainder_sizes(n, [0.3, 0.7])[0]
    assert parts["a"].ids == tuple(data.ids[i] for i in order[:cut])
    assert parts["b"].ids == tuple(data.ids[i] for i in order[cut:])
