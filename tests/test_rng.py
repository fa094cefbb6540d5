"""Re-keying one Philox bit generator from stream to stream, as the Monte
Carlo harness does per path, draws exactly the streams that fresh
generators draw."""

import numpy as np
import pytest

from levyem.rng import RngStream

PAIRS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1),
         (20240102, 1), (17, 301)]


def _shuffled(gen):
    a = np.arange(50)
    gen.shuffle(a)
    return a


# every draw kind the samplers use
DRAWS = {
    "uniform": lambda g: g.uniform(-0.5 * np.pi, 0.5 * np.pi, 33),
    "standard_exponential": lambda g: g.standard_exponential(33),
    "standard_normal": lambda g: g.standard_normal((11, 3)),
    "poisson": lambda g: g.poisson(3.5, 33),
    "multinomial": lambda g: g.multinomial(100, [0.2, 0.3, 0.5]),
    "integers": lambda g: g.integers(0, 2, 65),
    "shuffle": _shuffled,
}


def _used_generator():
    """A generator part-way through its output buffer with a spare 32-bit
    half pending, the state a re-keyed generator leaves its last path in."""
    gen = RngStream(5, 9).generator()
    gen.uniform(size=3)
    gen.integers(0, 2, 7)
    state = gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
    return gen


@pytest.mark.parametrize("seed,stream_id", PAIRS)
@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_reseated_generator_draws_the_fresh_stream(seed, stream_id, kind):
    stream = RngStream(seed, stream_id)
    gen = stream._seat(_used_generator())
    fresh = stream.generator()
    draw = DRAWS[kind]
    assert np.array_equal(draw(gen), draw(fresh))
    # and both go on in step
    assert np.array_equal(gen.integers(0, 2, 9), fresh.integers(0, 2, 9))


@pytest.mark.parametrize("seed,stream_id", PAIRS)
def test_reseated_state_is_the_fresh_state(seed, stream_id):
    stream = RngStream(seed, stream_id)
    got = stream._seat(_used_generator()).bit_generator.state
    want = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)).state
    assert got.keys() == want.keys()
    for key in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert got[key] == want[key]
    assert np.array_equal(got["buffer"], want["buffer"])
    for key in ("counter", "key"):
        assert np.array_equal(got["state"][key], want["state"][key])
