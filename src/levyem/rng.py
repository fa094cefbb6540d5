"""Counter-based random streams for reproducible Monte Carlo.

Each (seed, stream_id) pair keys an independent Philox counter stream, so
per-path generators can be created in any order and still
reproduce bit-for-bit.  There is no sequential jump-ahead: the stream id is
part of the key.  The key alone selects the stream, so one Philox bit
generator can be re-keyed from stream to stream in place of building a new
one per stream; ``RngStream._seat`` is the one place that keys a generator.
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
        return self._seat(np.random.Generator(np.random.Philox(key=0)))

    def _seat(self, gen: np.random.Generator) -> np.random.Generator:
        """Put the Philox bit generator of ``gen`` at the start of this stream
        and return ``gen``: the key [seed, stream_id], a zero counter, an
        empty output buffer and no spare 32-bit half, whatever it drew
        before.  ``gen`` then draws exactly what a fresh ``generator()``
        draws."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (self.seed, self.stream_id)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream (fresh stream) or a Generator (continues in place)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")
