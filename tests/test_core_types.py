import numpy as np
import pytest
from hypothesis import given, strategies as st

from adacgd.core import (
    SeededRng,
    ThreePCConstants,
    combine_constants,
)


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
