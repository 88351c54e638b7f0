import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adacgd.core import SeededRng, sqnorm
from adacgd.engine import branch_header_bits, message_bits
from adacgd.compressors import (
    Ada3PC,
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    CandidateErrorTrigger,
    FULL,
    RANDK,
    SKIP,
    SPARSE,
    TOPK,
    SkipTrigger,
    adacgd_as_chain,
    apply_contractor,
    compress,
    ef21_constants,
    reconstruct,
    _payload_view,
    _top_k_indices,
)
from adacgd.verification import estimate_constants

RNG = SeededRng(42)


def test_top_k_examples():
    assert np.array_equal(apply_contractor(ContractorSpec.top_k(1), [3, -1, 2]), [3, 0, 0])
    assert np.array_equal(apply_contractor(ContractorSpec.top_k(2), [1, 1]), [1, 1])
    assert np.array_equal(apply_contractor(ContractorSpec.top_k(2), [-5, 4, 0, 2]), [-5, 4, 0, 0])


def test_top_k_ties_prefer_lowest_index():
    assert np.array_equal(apply_contractor(ContractorSpec.top_k(1), [2.0, -2.0, 2.0]), [2, 0, 0])
    assert np.array_equal(apply_contractor(ContractorSpec.top_k(2), [1.0, -1.0, 1.0]), [1, -1, 0])


def test_contractor_k_exceeds_dim():
    with pytest.raises(ValueError):
        apply_contractor(ContractorSpec.top_k(4), [1, 2, 3])
    with pytest.raises(ValueError):
        apply_contractor(ContractorSpec.rand_k(4), [1, 2, 3], RNG)


def test_rand_k_keeps_unscaled_coordinates():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = apply_contractor(ContractorSpec.rand_k(2), x, RNG.derive(5))
    kept = out != 0
    assert kept.sum() == 2
    assert np.array_equal(out[kept], x[kept])


@given(st.lists(st.floats(min_value=-1e8, max_value=1e8), min_size=1, max_size=24), st.integers(1, 24))
def test_top_k_contraction_property(values, k):
    x = np.asarray(values)
    k = min(k, x.shape[0])
    alpha = k / x.shape[0]
    err = sqnorm(apply_contractor(ContractorSpec.top_k(k), x) - x)
    assert err <= (1 - alpha) * float(x @ x) * (1 + 1e-12) + 1e-12


# Magnitudes that tie across signs, signed zeros, infinities and NaN, mixed into Gaussian rows.
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan)


@st.composite
def ranked_stacks(draw, argmin):
    """An (m, d) stack of 1 to past 2048 entries, and a k: 1 for the argmin
    shortcut, else from 2 to d for the partition."""
    d = draw(st.integers(1 if argmin else 2, 700))
    m = draw(st.integers(1, 2048 // d + 3))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array(draw(st.lists(st.sampled_from(SPECIAL_VALUES), min_size=1, max_size=4)))
    x = g.standard_normal((m, d))
    special = g.random((m, d)) < draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    x[special] = palette[g.integers(palette.size, size=int(special.sum()))]
    k = 1 if argmin else draw(st.one_of(st.just(2), st.just(d), st.integers(2, d)))
    return x, k


@pytest.mark.parametrize("argmin", [True, False], ids=["argmin", "partition"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_top_k_indices_are_the_stable_magnitude_order_prefix(argmin, data):
    x, k = data.draw(ranked_stacks(argmin))
    want = np.sort(np.argsort(-np.abs(x), axis=1, kind="stable")[:, :k], axis=1)
    assert np.array_equal(_top_k_indices(x, k), want)


def test_ef21_examples():
    out = compress(EF21(ContractorSpec.top_k(1)), [0, 0], [0, 0], [2, 1])
    assert np.array_equal(out.vectors[0], [2, 0])
    x = np.array([1.5, -2.5])
    out = compress(EF21(ContractorSpec.top_k(1)), x, x, x)
    assert np.array_equal(out.vectors[0], x)
    out = compress(EF21(ContractorSpec.top_k(1)), [1, 0], [0, 0], [2, 3])
    assert np.array_equal(out.vectors[0], [1, 3])
    assert out.kinds[0] == SPARSE
    kept, sent = _payload_view(out)
    assert np.array_equal(np.flatnonzero(kept[0]), [1])
    assert np.array_equal(sent[0], [0, 3])


def test_ef21_identity_is_bitwise_passthrough():
    x = np.array([0.1 + 0.2, 1e-17, -3.5])
    out = compress(EF21(ContractorSpec.identity()), np.array([1.0, 2.0, 3.0]), x, x)
    assert np.array_equal(out.vectors[0], x)
    assert out.kinds[0] == FULL


def test_lag_examples():
    out = compress(LAG(1.0), [1, 0], [1, 1], [1, 0.5])
    assert np.array_equal(out.vectors[0], [1, 0])  # 0.25 <= 0.25, boundary inclusive
    assert out.branches[0] == 0 and out.kinds[0] == SKIP

    out = compress(LAG(0.0), [0, 0], [5, 5], [1, 1])
    assert np.array_equal(out.vectors[0], [1, 1])
    assert out.branches[0] == 1 and out.kinds[0] == FULL

    x = np.array([2.0, 2.0])
    out = compress(LAG(7.0), x, [9.0, 9.0], x)
    assert np.array_equal(out.vectors[0], x)
    assert out.branches[0] == 0


def test_clag_examples():
    h, y, x = np.zeros(2), np.array([5.0, 5.0]), np.array([2.0, 1.0])
    fired = compress(CLAG(ContractorSpec.top_k(1), 0.0), h, y, x)
    ef = compress(EF21(ContractorSpec.top_k(1)), h, y, x)
    assert np.array_equal(fired.vectors[0], ef.vectors[0])
    assert fired.branches[0] == 1

    out = compress(CLAG(ContractorSpec.top_k(1), 1e16), h, y, x)
    assert np.array_equal(out.vectors[0], h)
    assert out.branches[0] == 0 and out.kinds[0] == SKIP

    out = compress(CLAG(ContractorSpec.top_k(1), 1.0), [0, 0], [2, 1], [2, 1])
    assert np.array_equal(out.vectors[0], [2, 0])  # |x-h|^2 = 5 > 0 fires


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compress(EF21(ContractorSpec.top_k(1)), [1, 2], [1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        compress(LAG(1.0), [1], [1, 2], [1])


def test_adacgd_skip_branch():
    h = np.array([1.0, 1.0])
    out = compress(AdaCGD((ContractorSpec.top_k(1),), 1e16), h, [0, 0], [5.0, 6.0], RNG)
    assert out.branches[0] == 0
    assert np.array_equal(out.vectors[0], h)
    assert out.kinds[0] == SKIP


def test_adacgd_zeta_zero_reduces_to_weakest_level():
    g = SeededRng(3).generator()
    levels = (ContractorSpec.top_k(1), ContractorSpec.top_k(3))
    for _ in range(50):
        h, y, x = g.standard_normal(6), g.standard_normal(6), g.standard_normal(6)
        out = compress(AdaCGD(levels, 0.0), h, y, x, RNG)
        ef = compress(EF21(levels[-1]), h, y, x)
        assert np.array_equal(out.vectors[0], ef.vectors[0])


def test_adacgd_single_level_matches_clag():
    g = SeededRng(4).generator()
    c = ContractorSpec.top_k(2)
    for _ in range(50):
        h, y, x = g.standard_normal(5), g.standard_normal(5), g.standard_normal(5)
        a = compress(AdaCGD((c,), 1.5), h, y, x, RNG)
        b = compress(CLAG(c, 1.5), h, y, x, RNG.derive(1))
        assert np.array_equal(a.vectors[0], b.vectors[0])
        assert a.branches[0] == b.branches[0]
        assert a.kinds[0] == b.kinds[0]


def test_adacgd_requires_sorted_levels():
    with pytest.raises(ValueError):
        compress(AdaCGD((ContractorSpec.top_k(3), ContractorSpec.top_k(1)), 1.0), [1, 2, 3], [0, 0, 0], [4, 5, 6])
    with pytest.raises(ValueError):
        compress(AdaCGD((), 1.0), [1], [1], [1])


@pytest.mark.parametrize("levels", [
    (ContractorSpec.top_k(1), ContractorSpec.top_k(1)),
    (ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(2)),
    (ContractorSpec.rand_k(2), ContractorSpec.identity(), ContractorSpec.identity()),
])
def test_adacgd_rejects_repeated_levels_when_built(levels):
    # A repeated level probes the same candidate twice, and its branch widens every message's header.
    with pytest.raises(ValueError, match=re.escape(f"adaptive rule repeats level {levels[-1]!r}")):
        AdaCGD(levels, 1.0)
    assert AdaCGD((ContractorSpec.top_k(1), ContractorSpec.rand_k(1)), 1.0).adaptive_level_count == 2


def test_ada3pc_single_branch_delegates():
    spec = Ada3PC((EF21(ContractorSpec.top_k(1)),))
    h, y, x = np.zeros(3), np.zeros(3), np.array([1.0, -4.0, 2.0])
    out = compress(spec, h, y, x, RNG)
    assert np.array_equal(out.vectors[0], [0, -4, 0])
    assert out.branches[0] == 0


def test_ada3pc_falls_through_when_predicates_false():
    spec = Ada3PC(
        branches=(LAG(1.0), EF21(ContractorSpec.top_k(1)), EF21(ContractorSpec.identity())),
        predicates=(SkipTrigger(0.0), SkipTrigger(0.0)),
    )
    x = np.array([3.0, 1.0])
    out = compress(spec, np.zeros(2), np.zeros(2), x, RNG)
    assert out.branches[0] == 2
    assert np.array_equal(out.vectors[0], x)


def test_ada3pc_wrong_predicate_arity():
    with pytest.raises(ValueError):
        Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (SkipTrigger(1.0), SkipTrigger(1.0)))
    # hand-rolled malformed chains are caught at compression time too
    crafted = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (SkipTrigger(1.0),))
    object.__setattr__(crafted, "predicates", ())
    with pytest.raises(ValueError):
        compress(crafted, [1.0], [1.0], [2.0], RNG)


class _EvaluateOnly:
    def evaluate(self, h, y, x, rngs):
        return np.ones(x.shape[0], dtype=bool)


@pytest.mark.parametrize("predicate", [lambda h, y, x: True, _EvaluateOnly(), None], ids=["callable", "no-draws", "none"])
def test_ada3pc_rejects_a_predicate_that_is_not_a_trigger_object(predicate):
    with pytest.raises(ValueError, match=r"predicate .* needs an evaluate\(h, y, x, rngs\) method and a draws flag"):
        Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (predicate,))


class _OneAnswer:
    """A predicate whose evaluate returns ``answer`` whatever the stack."""

    draws = False

    def __init__(self, answer):
        self.answer = answer

    def evaluate(self, h, y, x, rngs):
        return self.answer


@pytest.mark.parametrize(
    "answer", [True, np.ones(3, dtype=bool), np.ones(2, dtype=np.int64)], ids=["scalar", "wrong-length", "ints"]
)
def test_ada3pc_rejects_a_predicate_that_does_not_answer_each_row(answer):
    spec = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (_OneAnswer(answer),))
    h, y, x = np.zeros((2, 3)), np.zeros((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match=r"predicate <.*_OneAnswer object .*> must return one bool per row"):
        spec.raw(h, y, x, None)
    with pytest.raises(ValueError, match="one bool per row"):
        compress(spec, h[0], y[0], x[0])


def test_explicit_chain_matches_adacgd_branch_exactly():
    levels = (ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(4))
    chain = adacgd_as_chain(levels, 0.8)
    g = SeededRng(5).generator()
    for _ in range(200):
        h, y, x = g.standard_normal(4), g.standard_normal(4), g.standard_normal(4)
        direct = compress(AdaCGD(levels, 0.8), h, y, x, RNG.derive(7))
        chained = compress(chain, h, y, x, RNG.derive(7))
        assert np.array_equal(direct.vectors[0], chained.vectors[0])
        assert direct.branches[0] == chained.branches[0]


def test_certified_constants_examples():
    assert IdentityMaster().constants(10) == EF21(ContractorSpec.identity()).constants(10)
    assert IdentityMaster().constants(10).a == 1.0
    assert IdentityMaster().constants(10).b == 0.0


def test_identity_master_takes_no_contractor():
    assert repr(IdentityMaster()) == "IdentityMaster()"
    with pytest.raises(TypeError):
        IdentityMaster(ContractorSpec.top_k(1))
    with pytest.raises(TypeError):
        IdentityMaster(contractor=ContractorSpec.top_k(1))
    assert LAG(2.0).constants(3).a == 1.0
    assert LAG(2.0).constants(3).b == 2.0
    # two levels with alpha 0.25 and 1: a = 1 - sqrt(0.75), b = 0.75 / (1 - sqrt(0.75))
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(4)), 2.0)
    c = spec.constants(4)
    assert c.a == pytest.approx(1 - math.sqrt(0.75), rel=1e-12)
    assert c.b == pytest.approx(0.75 / (1 - math.sqrt(0.75)), rel=1e-12)


def test_ef21_alpha_one_limit():
    assert ef21_constants(1.0).a == 1.0
    assert ef21_constants(1.0).b == 0.0


def test_clag_constants_cover_trigger_and_compression():
    c = CLAG(ContractorSpec.top_k(1), 100.0).constants(4)
    assert c.b == 100.0
    c = CLAG(ContractorSpec.top_k(1), 0.0).constants(4)
    assert c.b == pytest.approx(0.75 / (1 - math.sqrt(0.75)), rel=1e-12)


def test_estimate_constants_identity_zero_error():
    report = estimate_constants(IdentityMaster(), 6, 200, SeededRng(0))
    assert report.passed
    assert report.constants.a == 1.0
    assert report.constants.b == 0.0


def test_estimate_constants_flags_wrong_certificate():
    from adacgd.core import ThreePCConstants

    report = estimate_constants(
        LAG(5.0), 6, 500, SeededRng(0), certified=ThreePCConstants(1.0, 0.01)
    )
    assert not report.passed


def test_estimate_constants_randomized_kind():
    report = estimate_constants(EF21(ContractorSpec.rand_k(2)), 6, 40, SeededRng(3))
    assert report.passed


def test_compress_dispatch_matches_rule_functions():
    h, y, x = np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([2.0, 3.0])
    assert np.array_equal(
        compress(EF21(ContractorSpec.top_k(1)), h, y, x).vectors[0],
        EF21(ContractorSpec.top_k(1)).raw(h[None], y[None], x[None], None).vectors[0],
    )
    assert np.array_equal(compress(LAG(1.0), h, y, x).vectors[0], LAG(1.0).raw(h[None], y[None], x[None], None).vectors[0])
    assert np.array_equal(compress(IdentityMaster(), h, y, x).vectors[0], x)


def test_determinism_with_randomized_levels():
    levels = (ContractorSpec.rand_k(1), ContractorSpec.rand_k(3))
    h, y, x = np.array([1.0, 2, 3, 4]), np.zeros(4), np.array([4.0, -3, 2, -1])
    a = compress(AdaCGD(levels, 0.5), h, y, x, SeededRng(11, 22))
    b = compress(AdaCGD(levels, 0.5), h, y, x, SeededRng(11, 22))
    assert np.array_equal(a.vectors[0], b.vectors[0])
    assert a.branches[0] == b.branches[0]


def test_payload_entry_count_fixed_for_topk():
    # Fixed-rate sparsifier: k pairs cross the wire even when deltas vanish.
    x = np.array([5.0, 5.0, 5.0])
    out = compress(EF21(ContractorSpec.top_k(2)), x, x, x)
    assert out.kinds[0] == SPARSE
    assert out.entries[0] == 2
    kept, sent = _payload_view(out)
    assert kept[0].sum() == 2
    assert np.array_equal(sent[0][kept[0]], [0.0, 0.0])


# Few distinct magnitudes, so many draws carry tied coordinates.
tied = st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), min_size=6, max_size=6)
spread = st.lists(st.floats(min_value=-10, max_value=10), min_size=6, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(tied, spread),
    st.one_of(tied, spread),
    st.one_of(tied, spread),
    st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
    st.sampled_from([0.0, 0.25, 1.0, 3.0]),
)
def test_adacgd_matches_its_chain_on_ties(hv, yv, xv, ks, zeta):
    levels = tuple(ContractorSpec.top_k(k) for k in sorted(ks))
    h, y, x = np.asarray(hv), np.asarray(yv), np.asarray(xv)
    direct = compress(AdaCGD(levels, zeta), h, y, x)
    chained = compress(adacgd_as_chain(levels, zeta), h, y, x)
    assert np.array_equal(direct.vectors[0], chained.vectors[0])
    assert direct.branches[0] == chained.branches[0]
    assert direct.kinds[0] == chained.kinds[0]
    for u, v in zip(_payload_view(direct), _payload_view(chained)):
        assert np.array_equal(u, v)


def test_is_randomized_counts_trigger_contractors():
    drawing = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (CandidateErrorTrigger(1.0, ContractorSpec.rand_k(1)),))
    fixed = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (CandidateErrorTrigger(1.0, ContractorSpec.top_k(1)),))
    assert drawing.randomized
    assert not fixed.randomized
    assert not Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (SkipTrigger(1.0),)).randomized
    assert adacgd_as_chain((ContractorSpec.rand_k(1), ContractorSpec.top_k(3)), 1.0).randomized
    h, y, x = np.zeros(3), np.zeros(3), np.array([3.0, -1.0, 2.0])
    with pytest.raises(ValueError, match="rng stream"):
        compress(drawing, h, y, x)
    assert compress(drawing, h, y, x, SeededRng(4)).branches[0] in (0, 1)


def _stack_specs(dim: int, zeta: float) -> list:
    ks = sorted({1, (dim + 1) // 2, dim})
    top = tuple(ContractorSpec.top_k(k) for k in ks)
    rand = tuple(ContractorSpec.rand_k(k) for k in ks)
    return [
        EF21(ContractorSpec.identity()),
        EF21(ContractorSpec.top_k((dim + 1) // 2)),
        EF21(ContractorSpec.rand_k(1)),
        LAG(zeta),
        CLAG(ContractorSpec.top_k(1), zeta),
        AdaCGD(top, zeta),
        AdaCGD(top[:-1] + (ContractorSpec.identity(),), zeta),
        AdaCGD(rand, zeta),
        adacgd_as_chain(rand[:1] + top[1:] + (ContractorSpec.identity(),), zeta),
        IdentityMaster(),
    ]


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Few distinct magnitudes (ties), any floats, and rows of zeros.
_entry = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(min_value=-100, max_value=100))


def _draw_stacks(data):
    """(dim, h, y, x, zeta, streams): (n, dim) stacks, a lazy budget and one stream per row."""
    dim = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 50]), label="dim")
    n = data.draw(st.integers(1, 5), label="n")
    row = st.one_of(st.just([0.0] * dim), st.lists(_entry, min_size=dim, max_size=dim))
    h, y, x = (np.array(data.draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64) for _ in range(3))
    zeta = data.draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]), label="zeta")
    streams = [SeededRng(data.draw(st.integers(0, 2**32), label="seed")).derive(i) for i in range(n)]
    return dim, h, y, x, zeta, streams


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_stacked_map_equals_each_row_alone(data):
    dim, h, y, x, zeta, streams = _draw_stacks(data)
    n = h.shape[0]
    for spec in _stack_specs(dim, zeta):
        rngs = streams if spec.randomized else None
        header = branch_header_bits(spec)
        whole = spec.raw(h, y, x, rngs)
        kept, sent = _payload_view(whole)
        bits = message_bits(whole.kinds, whole.entries, dim, header)
        assert whole.vectors.shape == (n, dim) and whole.branches.shape == (n,)
        for i in range(n):
            alone = spec.raw(h[i : i + 1], y[i : i + 1], x[i : i + 1], None if rngs is None else rngs[i : i + 1])
            alone_kept, alone_sent = _payload_view(alone)
            assert _same_bits(whole.vectors[i], alone.vectors[0]), spec
            assert whole.branches[i] == alone.branches[0], spec
            assert whole.kinds[i] == alone.kinds[0], spec
            assert _same_bits(kept[i], alone_kept[0]), spec
            assert _same_bits(sent[i], alone_sent[0]), spec
            assert bits[i] == message_bits(alone.kinds[0], alone_kept[0].sum(), dim, header), spec


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_payload_reconstruction_is_exact(data):
    dim, h, y, x, zeta, streams = _draw_stacks(data)
    for spec in _stack_specs(dim, zeta):
        out = spec.raw(h, y, x, streams if spec.randomized else None)
        assert _same_bits(reconstruct(h, out), out.vectors), spec


def test_adacgd_identity_level_sends_in_full_and_reconstructs():
    # zeta = 0 rejects the skip and the lossy top-1 level, so row 0 falls to
    # the identity level; row 1 (x == h) skips.
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.identity()), 0.0)
    h = np.array([[0.5, 0.0, -1.0], [1.0, 2.0, 3.0]])
    x = np.array([[3.0, -1.0, 2.0], [1.0, 2.0, 3.0]])
    out = spec.raw(h, np.zeros_like(h), x, None)
    assert out.kinds.tolist() == [FULL, SKIP] and out.branches.tolist() == [2, 0]
    assert _same_bits(out.vectors[0], x[0])
    assert _same_bits(reconstruct(h, out), out.vectors)


def test_an_identity_level_does_not_fit_a_row_whose_x_is_infinite():
    # x = h = inf leaves x - h NaN, so the row is in play; x - x is NaN too,
    # so the identity level's residual fails the (infinite) budget and the
    # row falls to the next level, as every level's own test decides.
    spec = AdaCGD((ContractorSpec.identity(), ContractorSpec.top_k(2)), 1.0)
    h = np.array([[np.inf, 1.0], [0.0, 1.0]])
    x = np.array([[np.inf, 2.0], [3.0, 2.0]])
    y = np.array([[0.0, 0.0], [3.0, 2.0]])
    out = spec.raw(h, y, x, None)
    assert out.branches.tolist() == [2, 1]
    assert out.kinds.tolist() == [SPARSE, FULL]


def _levels(kind: str, ks) -> tuple:
    return tuple(ContractorSpec(kind, k) for k in ks)


@pytest.mark.parametrize("m, dim", [(4, 40), (20, 300)], ids=["narrow", "wide"])
def test_every_rule_leaves_its_inputs_unchanged(m, dim):
    # AdaCGD makes each level's residual in its own x - h and restores it; no
    # rule may write into the h, y and x it is given, which are engine state.
    g = np.random.default_rng(11)
    h, x = g.standard_normal((2, m, dim))
    y = x + np.linspace(0.0, 3.0, m)[:, None] * g.standard_normal((m, dim))  # budgets from none to wide
    ks = (1, dim // 20, dim // 2)
    h[0] = x[0]  # a row that skips
    # Rows whose x - h has one entry, and ks[1] entries, under tight budgets: the top-k levels fit them.
    h[1:3] = x[1:3]
    h[1, 5] -= 3.0
    h[2, : ks[1]] -= 3.0 + np.arange(ks[1])
    y[1:3] = x[1:3] + 1e-3
    streams = [SeededRng(9).derive(i) for i in range(m)]
    specs = _stack_specs(dim, 1.0) + [AdaCGD(_levels(kind, ks), zeta) for kind in (TOPK, RANDK) for zeta in (0.5, 4.0)]
    inputs = [a.copy() for a in (h, y, x)]
    branches = set()
    for spec in specs:
        out = spec.raw(h, y, x, streams if spec.randomized else None)
        for given, kept in zip((h, y, x), inputs):
            assert _same_bits(given, kept), spec
        if isinstance(spec, AdaCGD):
            branches.update(out.branches.tolist())
    assert branches == set(range(len(ks) + 1))  # every level, and the skip, taken by some row


# The transient peak of one AdaCGD worker call on a (20, 2000) stack whose
# every row probes every level, in units of the stack's bytes. Measured 3.34
# top-k and 3.01 rand-k (7.1 for both before the level loop was trimmed). A
# round's transient peak is this call; at 7.1 times a stack of two
# highdim_bidir runs made glibc trim the heap after each sweep (see
# engine._STACK_MAX_ELEMENTS). The bounds leave under 10% headroom.
@pytest.mark.parametrize("kind, bound", [(TOPK, 3.6), (RANDK, 3.3)])
def test_a_wide_adacgd_call_stays_within_its_memory_bound(kind, bound):
    g = np.random.default_rng(3)
    h, x = g.standard_normal((2, 20, 2000))
    y = x + 1e-3 * g.standard_normal(x.shape)  # tight budgets: no level before the last fits
    spec = AdaCGD(_levels(kind, (1, 20, 200, 1000)), 1.0)
    streams = [SeededRng(5).derive(i) for i in range(20)]
    assert (spec.raw(h, y, x, streams).branches == 4).all()
    tracemalloc.start()
    try:
        spec.raw(h, y, x, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.nbytes <= bound


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64")
    or "avx2" not in (Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""),
    reason="needs an x86-64 CPU with AVX2 to force OpenBLAS's Haswell kernel",
)
def test_stacked_map_property_holds_under_the_haswell_blas_kernel():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_stacked_map_equals_each_row_alone"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout
