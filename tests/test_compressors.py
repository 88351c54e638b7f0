import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adacgd.core import SeededRng, squared_distance
from adacgd.compressors import (
    Ada3PC,
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    CandidateErrorTrigger,
    SkipTrigger,
    adacgd_as_chain,
    apply_contractor,
    certified_constants,
    compress,
    ef21_constants,
    estimate_constants,
    reconstruct,
)

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
    err = squared_distance(apply_contractor(ContractorSpec.top_k(k), x), x)
    assert err <= (1 - alpha) * float(x @ x) * (1 + 1e-12) + 1e-12


def test_ef21_examples():
    out = compress(EF21(ContractorSpec.top_k(1)), [0, 0], [0, 0], [2, 1])
    assert np.array_equal(out.vector, [2, 0])
    x = np.array([1.5, -2.5])
    out = compress(EF21(ContractorSpec.top_k(1)), x, x, x)
    assert np.array_equal(out.vector, x)
    out = compress(EF21(ContractorSpec.top_k(1)), [1, 0], [0, 0], [2, 3])
    assert np.array_equal(out.vector, [1, 3])
    assert out.payload.kind == "sparse"
    assert np.array_equal(out.payload.indices, [1])


def test_ef21_identity_is_bitwise_passthrough():
    x = np.array([0.1 + 0.2, 1e-17, -3.5])
    out = compress(EF21(ContractorSpec.identity()), np.array([1.0, 2.0, 3.0]), x, x)
    assert np.array_equal(out.vector, x)
    assert out.payload.kind == "full"


def test_lag_examples():
    out = compress(LAG(1.0), [1, 0], [1, 1], [1, 0.5])
    assert np.array_equal(out.vector, [1, 0])  # 0.25 <= 0.25, boundary inclusive
    assert out.branch_index == 0 and out.payload.kind == "skip"

    out = compress(LAG(0.0), [0, 0], [5, 5], [1, 1])
    assert np.array_equal(out.vector, [1, 1])
    assert out.branch_index == 1 and out.payload.kind == "full"

    x = np.array([2.0, 2.0])
    out = compress(LAG(7.0), x, [9.0, 9.0], x)
    assert np.array_equal(out.vector, x)
    assert out.branch_index == 0


def test_clag_examples():
    h, y, x = np.zeros(2), np.array([5.0, 5.0]), np.array([2.0, 1.0])
    fired = compress(CLAG(ContractorSpec.top_k(1), 0.0), h, y, x)
    ef = compress(EF21(ContractorSpec.top_k(1)), h, y, x)
    assert np.array_equal(fired.vector, ef.vector)
    assert fired.branch_index == 1

    out = compress(CLAG(ContractorSpec.top_k(1), 1e16), h, y, x)
    assert np.array_equal(out.vector, h)
    assert out.branch_index == 0 and out.payload.kind == "skip"

    out = compress(CLAG(ContractorSpec.top_k(1), 1.0), [0, 0], [2, 1], [2, 1])
    assert np.array_equal(out.vector, [2, 0])  # |x-h|^2 = 5 > 0 fires


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compress(EF21(ContractorSpec.top_k(1)), [1, 2], [1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        compress(LAG(1.0), [1], [1, 2], [1])


def test_adacgd_skip_branch():
    h = np.array([1.0, 1.0])
    out = compress(AdaCGD((ContractorSpec.top_k(1),), 1e16), h, [0, 0], [5.0, 6.0], RNG)
    assert out.branch_index == 0
    assert np.array_equal(out.vector, h)
    assert out.payload.kind == "skip"


def test_adacgd_zeta_zero_reduces_to_weakest_level():
    g = SeededRng(3).generator()
    levels = (ContractorSpec.top_k(1), ContractorSpec.top_k(3))
    for _ in range(50):
        h, y, x = g.standard_normal(6), g.standard_normal(6), g.standard_normal(6)
        out = compress(AdaCGD(levels, 0.0), h, y, x, RNG)
        ef = compress(EF21(levels[-1]), h, y, x)
        assert np.array_equal(out.vector, ef.vector)


def test_adacgd_single_level_matches_clag():
    g = SeededRng(4).generator()
    c = ContractorSpec.top_k(2)
    for _ in range(50):
        h, y, x = g.standard_normal(5), g.standard_normal(5), g.standard_normal(5)
        a = compress(AdaCGD((c,), 1.5), h, y, x, RNG)
        b = compress(CLAG(c, 1.5), h, y, x, RNG.derive(1))
        assert np.array_equal(a.vector, b.vector)
        assert a.branch_index == b.branch_index
        assert a.payload.kind == b.payload.kind


def test_adacgd_requires_sorted_levels():
    with pytest.raises(ValueError):
        compress(AdaCGD((ContractorSpec.top_k(3), ContractorSpec.top_k(1)), 1.0), [1, 2, 3], [0, 0, 0], [4, 5, 6])
    with pytest.raises(ValueError):
        compress(AdaCGD((), 1.0), [1], [1], [1])


def test_ada3pc_single_branch_delegates():
    spec = Ada3PC((EF21(ContractorSpec.top_k(1)),))
    h, y, x = np.zeros(3), np.zeros(3), np.array([1.0, -4.0, 2.0])
    out = compress(spec, h, y, x, RNG)
    assert np.array_equal(out.vector, [0, -4, 0])
    assert out.branch_index == 0


def test_ada3pc_falls_through_when_predicates_false():
    spec = Ada3PC(
        branches=(LAG(1.0), EF21(ContractorSpec.top_k(1)), EF21(ContractorSpec.identity())),
        predicates=(lambda h, y, x: False, lambda h, y, x: False),
    )
    x = np.array([3.0, 1.0])
    out = compress(spec, np.zeros(2), np.zeros(2), x, RNG)
    assert out.branch_index == 2
    assert np.array_equal(out.vector, x)


def test_ada3pc_wrong_predicate_arity():
    with pytest.raises(ValueError):
        Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (SkipTrigger(1.0), SkipTrigger(1.0)))
    # hand-rolled malformed chains are caught at compression time too
    crafted = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (SkipTrigger(1.0),))
    object.__setattr__(crafted, "predicates", ())
    with pytest.raises(ValueError):
        compress(crafted, [1.0], [1.0], [2.0], RNG)


def test_explicit_chain_matches_adacgd_branch_exactly():
    levels = (ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(4))
    chain = adacgd_as_chain(levels, 0.8)
    g = SeededRng(5).generator()
    for _ in range(200):
        h, y, x = g.standard_normal(4), g.standard_normal(4), g.standard_normal(4)
        direct = compress(AdaCGD(levels, 0.8), h, y, x, RNG.derive(7))
        chained = compress(chain, h, y, x, RNG.derive(7))
        assert np.array_equal(direct.vector, chained.vector)
        assert direct.branch_index == chained.branch_index


def test_certified_constants_examples():
    assert certified_constants(IdentityMaster(), 10) == (certified_constants(EF21(ContractorSpec.identity()), 10))
    assert certified_constants(IdentityMaster(), 10).a == 1.0
    assert certified_constants(IdentityMaster(), 10).b == 0.0
    assert certified_constants(LAG(2.0), 3) .a == 1.0
    assert certified_constants(LAG(2.0), 3).b == 2.0
    # two levels with alpha 0.25 and 1: a = 1 - sqrt(0.75), b = 0.75 / (1 - sqrt(0.75))
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(4)), 2.0)
    c = certified_constants(spec, 4)
    assert c.a == pytest.approx(1 - math.sqrt(0.75), rel=1e-12)
    assert c.b == pytest.approx(0.75 / (1 - math.sqrt(0.75)), rel=1e-12)


def test_ef21_alpha_one_limit():
    assert ef21_constants(1.0).a == 1.0
    assert ef21_constants(1.0).b == 0.0


def test_clag_constants_cover_trigger_and_compression():
    c = certified_constants(CLAG(ContractorSpec.top_k(1), 100.0), 4)
    assert c.b == 100.0
    c = certified_constants(CLAG(ContractorSpec.top_k(1), 0.0), 4)
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
        compress(EF21(ContractorSpec.top_k(1)), h, y, x).vector,
        EF21(ContractorSpec.top_k(1)).raw(h, y, x, None).vector,
    )
    assert np.array_equal(compress(LAG(1.0), h, y, x).vector, LAG(1.0).raw(h, y, x, None).vector)
    assert np.array_equal(compress(IdentityMaster(), h, y, x).vector, x)


def test_determinism_with_randomized_levels():
    levels = (ContractorSpec.rand_k(1), ContractorSpec.rand_k(3))
    h, y, x = np.array([1.0, 2, 3, 4]), np.zeros(4), np.array([4.0, -3, 2, -1])
    a = compress(AdaCGD(levels, 0.5), h, y, x, SeededRng(11, 22))
    b = compress(AdaCGD(levels, 0.5), h, y, x, SeededRng(11, 22))
    assert np.array_equal(a.vector, b.vector)
    assert a.branch_index == b.branch_index


triple = st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=8)


@settings(max_examples=60, deadline=None)
@given(triple, triple, triple, st.integers(0, 2**32))
def test_payload_reconstruction_is_exact(hv, yv, xv, seed):
    n = min(len(hv), len(yv), len(xv))
    h = np.asarray(hv[:n])
    y = np.asarray(yv[:n])
    x = np.asarray(xv[:n])
    for spec in (
        EF21(ContractorSpec.top_k(1)),
        LAG(0.7),
        CLAG(ContractorSpec.top_k(1), 0.7),
        AdaCGD((ContractorSpec.top_k(1), ContractorSpec.identity()), 0.7),
        EF21(ContractorSpec.rand_k(1)),
    ):
        out = compress(spec, h, y, x, SeededRng(seed))
        assert np.array_equal(reconstruct(h, out.payload), out.vector)


def test_payload_entry_count_fixed_for_topk():
    # Fixed-rate sparsifier: k pairs cross the wire even when deltas vanish.
    x = np.array([5.0, 5.0, 5.0])
    out = compress(EF21(ContractorSpec.top_k(2)), x, x, x)
    assert out.payload.kind == "sparse"
    assert out.payload.entry_count == 2
    assert np.array_equal(out.payload.values, [0.0, 0.0])


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
    assert np.array_equal(direct.vector, chained.vector)
    assert direct.branch_index == chained.branch_index
    assert direct.payload.kind == chained.payload.kind
    if direct.payload.kind == "sparse":
        assert np.array_equal(direct.payload.indices, chained.payload.indices)
        assert np.array_equal(direct.payload.values, chained.payload.values)


def test_is_randomized_counts_trigger_contractors():
    drawing = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (CandidateErrorTrigger(1.0, ContractorSpec.rand_k(1)),))
    fixed = Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (CandidateErrorTrigger(1.0, ContractorSpec.top_k(1)),))
    assert drawing.randomized
    assert not fixed.randomized
    assert not Ada3PC((LAG(1.0), EF21(ContractorSpec.top_k(1))), (SkipTrigger(1.0),)).randomized
    assert not Ada3PC((LAG(1.0), LAG(2.0)), (lambda h, y, x: True,)).randomized
    assert adacgd_as_chain((ContractorSpec.rand_k(1), ContractorSpec.top_k(3)), 1.0).randomized
    h, y, x = np.zeros(3), np.zeros(3), np.array([3.0, -1.0, 2.0])
    with pytest.raises(ValueError, match="rng stream"):
        compress(drawing, h, y, x)
    assert compress(drawing, h, y, x, SeededRng(4)).branch_index in (0, 1)
