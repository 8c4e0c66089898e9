"""Deterministic pseudo-random streams based on splitmix64.

Every source of randomness in this package (synthetic data generation,
dataset shuffling) flows through the generator defined here rather than a
platform default, so that identical seeds produce bit-identical results
across Python versions and platforms.

The stream seeded with ``seed`` is defined by

    output[i] = mix64((seed + (i + 1) * GOLDEN) mod 2**64)

where ``mix64`` is the splitmix64 finalizer.  Uniform doubles in [0, 1)
take the top 53 bits: ``(output >> 11) * 2**-53``.  Bounded integers in
[0, m) use the exact integer product ``((output >> 11) * m) >> 53``
(negligibly biased for m far below 2**53).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64 = np.uint64
_GOLDEN_U = _U64(GOLDEN)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)


def output_block(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs ``start, ..., start + count - 1`` of the stream seeded with ``seed``.

    uint64 arithmetic wraps mod 2**64, as the definition above requires.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = _U64(seed & MASK64) + idx * _GOLDEN_U
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def nth_output(seed: int, index: int) -> int:
    """The ``index``-th (0-based) raw output of the stream seeded with ``seed``."""
    return int(output_block(seed, 1, start=index)[0])
