"""Counter-based random streams for reproducible parallel Monte Carlo.

Each (seed, stream_id) pair keys an independent Philox counter stream, so
per-path generators can be created in any order (or concurrently) and still
reproduce bit-for-bit.  There is no sequential jump-ahead: the stream id is
part of the key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RngStream:
    """Specification of one random stream.

    ``generator()`` always returns a *fresh* generator positioned at the
    start of the stream; hold on to the returned object when drawing
    sequentially.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64) or not (0 <= self.stream_id < 2**64):
            raise DomainError("seed and stream_id must lie in [0, 2**64), got "
                              f"seed={self.seed}, stream_id={self.stream_id}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream (fresh stream) or a Generator (continues in place)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")
