import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adacgd.core import (
    SeededRng,
    ThreePCConstants,
    combine_constants,
    stream_generators,
)
from adacgd.experiments import RunConfig


def test_combine_constants_examples():
    assert combine_constants([ThreePCConstants(0.5, 1), ThreePCConstants(0.2, 3)]) == ThreePCConstants(0.2, 3)
    assert combine_constants([ThreePCConstants(1, 0)]) == ThreePCConstants(1, 0)
    parts = [ThreePCConstants(0.3, 2), ThreePCConstants(0.3, 5), ThreePCConstants(0.9, 0)]
    assert combine_constants(parts) == ThreePCConstants(0.3, 5)


def test_combine_constants_empty_rejected():
    with pytest.raises(ValueError):
        combine_constants([])


def test_constants_validate_ranges():
    with pytest.raises(ValueError):
        ThreePCConstants(0.0, 1.0)
    with pytest.raises(ValueError):
        ThreePCConstants(1.5, 1.0)
    with pytest.raises(ValueError):
        ThreePCConstants(0.5, -0.1)


constants = st.builds(
    ThreePCConstants,
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e6),
)


@given(constants)
def test_combine_idempotent(c):
    assert combine_constants([c, c]) == c


@given(st.lists(constants, min_size=1, max_size=6), st.randoms())
def test_combine_order_invariant_and_closed(parts, rnd):
    combined = combine_constants(parts)
    shuffled = list(parts)
    rnd.shuffle(shuffled)
    assert combine_constants(shuffled) == combined
    assert 0 < combined.a <= 1
    assert combined.b >= 0


def test_rng_repeatable_streams():
    a = SeededRng(12345, 7).generator().random(8)
    b = SeededRng(12345, 7).generator().random(8)
    assert np.array_equal(a, b)


def test_rng_distinct_streams_differ():
    a = SeededRng(12345, 7).generator().random(8)
    b = SeededRng(12345, 8).generator().random(8)
    c = SeededRng(12346, 7).generator().random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_derive_is_deterministic_and_salted():
    base = SeededRng(99)
    assert base.derive(1, 2, 3) == base.derive(1, 2, 3)
    assert base.derive(1, 2) != base.derive(2, 1)
    assert base.derive(0) != base


def test_rng_rejects_out_of_range():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(0, 1 << 64)


@pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (1.0, 0), (0, 2.0), ("1", 0), (None, 0)])
def test_rng_rejects_a_seed_or_stream_id_that_is_not_an_integer(seed, stream_id):
    # A float seed was cast into the Philox key: seed 1.5 drew seed 1's streams.
    with pytest.raises(ValueError, match="seed and stream_id must be integers"):
        SeededRng(seed, stream_id)


def test_run_config_rejects_a_seed_that_is_not_an_integer():
    with pytest.raises(ValueError, match="seed and stream_id must be integers, got 1.5 and 0"):
        RunConfig(dataset="quadratic:diag=1|2", seed=1.5)


@pytest.mark.parametrize("salt", [1.5, 1.0, np.float64(2.0), "1", None])
def test_rng_derive_rejects_a_salt_that_is_not_an_integer(salt):
    # A salt went through int(): derive(1.5) was derive(1).
    with pytest.raises(ValueError, match=f"salt must be an integer, got {re.escape(repr(salt))}"):
        SeededRng(1).derive(3, salt)


def test_rng_derive_takes_an_integer_salt_of_any_integer_type():
    base = SeededRng(1, 7)
    assert base.derive(True) == base.derive(1)
    assert base.derive(np.int64(3), np.uint64(2**64 - 1)) == base.derive(3, -1)


def test_rng_keeps_a_numpy_integer_seed_as_an_int():
    rng = SeededRng(np.int64(3), np.uint64(5))
    assert (type(rng.seed), type(rng.stream_id)) == (int, int)
    assert np.array_equal(rng.generator().random(4), SeededRng(3, 5).generator().random(4))


def _mixed_draws(g, t):
    # Stream t's draws: odd and even runs of 64-bit doubles and 32-bit integers,
    # so most streams end mid-buffer or holding the unused half of a 64-bit word.
    return [
        g.random(1 + t % 3), g.integers(2**32, size=1 + 2 * (t % 2)), g.random(2 + t), g.integers(2**32, size=1 + t % 2)
    ]


def test_rekeyed_streams_draw_what_fresh_generators_draw():
    keys = [SeededRng(seed, stream) for seed in (0, 2**63, 2**64 - 1) for stream in (0, 2**64 - 1)]
    keys += keys[::-1]  # each key again, now after a different predecessor
    leftovers = []
    for t, (key, g) in enumerate(zip(keys, stream_generators(keys))):
        got, want = _mixed_draws(g, t), _mixed_draws(key.generator(), t)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), key
        state = g.bit_generator.state
        leftovers.append((state["buffer_pos"] < 4, state["has_uint32"] == 1))
    # Some stream left buffered words, and some a cached half word, for the next one to ignore.
    assert all(any(column) for column in zip(*leftovers))
