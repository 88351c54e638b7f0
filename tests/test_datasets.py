import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from adacgd.datasets import (
    Example,
    LibsvmParseError,
    SyntheticSpec,
    build_problem,
    format_example,
    make_synthetic,
    parse_libsvm,
    partition,
    to_dense,
)


def test_parse_basic_line():
    examples, dim = parse_libsvm("+1 1:0.5 3:2\n")
    assert dim == 3
    assert examples[0].label == 1
    dense, labels = to_dense(examples, dim)
    assert np.array_equal(dense[0], [0.5, 0.0, 2.0])
    assert labels[0] == 1.0


def test_parse_label_variants_and_featureless():
    examples, dim = parse_libsvm("-1\n0 2:1\n1 1:3\n+1\n")
    assert [e.label for e in examples] == [-1, -1, 1, 1]
    assert dim == 2


def test_parse_skips_blanks_and_comments():
    text = "\n# full comment line\n+1 1:1 # trailing comment\n\n-1 2:0.5\n"
    examples, dim = parse_libsvm(text)
    assert len(examples) == 2
    assert dim == 2


def test_parse_errors_name_line_numbers():
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm("abc 1:1\n")
    assert err.value.line_number == 1
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm("+1 1:1\n-1 2:oops\n")
    assert err.value.line_number == 2
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm("+1 3:1 2:1\n")
    assert err.value.line_number == 1
    with pytest.raises(LibsvmParseError):
        parse_libsvm("+1 1:1 1:2\n")
    with pytest.raises(LibsvmParseError):
        parse_libsvm("+1 0:1\n")
    with pytest.raises(LibsvmParseError):
        parse_libsvm("+1 1\n")


@pytest.mark.parametrize("text", ["+1 1:nan\n", "-1 2:inf\n", "+1 1:1e400\n"])
def test_parse_rejects_non_finite_values_with_line_number(text):
    with pytest.raises(LibsvmParseError, match="not finite") as err:
        parse_libsvm("+1 1:1\n" + text)
    assert err.value.line_number == 2


def test_example_holds_the_row_rules():
    with pytest.raises(ValueError, match=">= 1"):
        Example(1, ((0, 1.0),))
    with pytest.raises(ValueError, match="strictly increasing"):
        Example(1, ((2, 1.0), (2, 1.0)))
    with pytest.raises(ValueError, match="not finite"):
        Example(-1, ((1, float("inf")),))
    with pytest.raises(ValueError, match="label"):
        Example(0, ())


def test_bytes_input_accepted():
    examples, dim = parse_libsvm(b"+1 2:1.5\n")
    assert examples[0].features == ((2, 1.5),)


def test_example_round_trip_exact():
    e = Example(1, ((1, 0.1), (3, -2.7182818284590455), (9, 1e-300)))
    parsed, _ = parse_libsvm(format_example(e))
    assert parsed[0] == e


features_strategy = st.lists(
    st.tuples(st.integers(1, 40), st.floats(min_value=-1e12, max_value=1e12)),
    max_size=8,
    unique_by=lambda t: t[0],
).map(lambda feats: tuple(sorted(feats)))


@given(st.sampled_from([-1, 1]), features_strategy)
def test_round_trip_property(label, feats):
    e = Example(label, feats)
    parsed, _ = parse_libsvm(format_example(e))
    assert parsed[0] == e


def test_partition_sizes_and_remainder():
    part = partition(list(range(10)), 3, seed=0)
    assert [len(s) for s in part.shards] == [4, 3, 3]
    part = partition(list(range(20)), 20, seed=0)
    assert all(len(s) == 1 for s in part.shards)


def test_partition_deterministic():
    a = partition(list(range(12)), 4, seed=5)
    b = partition(list(range(12)), 4, seed=5)
    assert a == b
    c = partition(list(range(12)), 4, seed=6)
    assert a != c


def test_partition_rejects_bad_counts():
    with pytest.raises(ValueError):
        partition(list(range(3)), 4, seed=0)
    with pytest.raises(ValueError):
        partition(list(range(3)), 0, seed=0)


@given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 1000))
def test_partition_is_a_partition(count, n, seed):
    if n > count:
        n = count
    part = partition(list(range(count)), n, seed)
    seen = [i for shard in part.shards for i in shard]
    assert sorted(seen) == list(range(count))
    sizes = [len(s) for s in part.shards]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_build_problem_shapes():
    features, labels = make_synthetic(SyntheticSpec(25, 6, 2))
    p = build_problem(features, labels, 4, 0.1, 1)
    assert p.n_clients == 4
    assert p.dim == 6
    assert sum(s.size for s in p.shards) == 25


@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 12), st.integers(0, 1000))
@example(count=7, dim=1, n=1, seed=0)
@example(count=7, dim=1, n=3, seed=0)
@example(count=5, dim=2, n=5, seed=1)
def test_build_problem_keeps_every_row_once(count, dim, n, seed):
    n = min(n, count)
    g = np.random.default_rng(seed)
    features = g.standard_normal((count, dim))
    features[:, 0] = np.arange(count)  # row id
    labels = np.where(g.random(count) < 0.5, 1.0, -1.0)
    p = build_problem(features, labels, n, 0.1, seed)
    assert p.dim == dim and p.n_clients == n
    sizes = [s.size for s in p.shards]
    assert max(sizes) - min(sizes) <= 1
    rows = np.concatenate([s.features for s in p.shards])
    row_labels = np.concatenate([s.labels for s in p.shards])
    order = np.argsort(rows[:, 0])
    assert np.array_equal(rows[order], features)
    assert np.array_equal(row_labels[order], labels)


def test_build_problem_rejects_bad_inputs():
    features, labels = make_synthetic(SyntheticSpec(6, 2, 0))
    with pytest.raises(ValueError, match="shapes"):
        build_problem(features, labels[:5], 2, 0.1, 0)
    with pytest.raises(ValueError, match="shapes"):
        build_problem(features[:, 0], labels, 2, 0.1, 0)
    with pytest.raises(ValueError, match="dimension"):
        build_problem(*to_dense(*parse_libsvm("+1\n-1\n")), 1, 0.1, 0)
    with pytest.raises(ValueError, match="shards"):
        build_problem(features, labels, 7, 0.1, 0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n_examples=0, dim=3), "n_examples"),
        (dict(n_examples=3, dim=0), "dim"),
        (dict(n_examples=3, dim=3, label_flip=2.0), "label_flip"),
        (dict(n_examples=3, dim=3, label_flip=-0.1), "label_flip"),
        (dict(n_examples=3, dim=3, cond=0.5), "cond"),
        (dict(n_examples=3, dim=3, cond=float("nan")), "cond"),
    ],
)
def test_synthetic_spec_rejects_edge_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SyntheticSpec(seed=0, **kwargs)


def test_synthetic_deterministic_and_balanced():
    spec = SyntheticSpec(200, 10, 7)
    features, labels = make_synthetic(spec)
    again_features, again_labels = make_synthetic(spec)
    assert np.array_equal(features, again_features) and np.array_equal(labels, again_labels)
    assert features.shape == (200, 10) and features.dtype == labels.dtype == np.float64
    assert set(np.unique(labels)) == {-1.0, 1.0}
    assert 20 < (labels == 1).sum() < 180  # both classes present


def test_synthetic_conditioning_scales_features():
    spec = SyntheticSpec(500, 10, 3, cond=100.0)
    dense, _ = make_synthetic(spec)
    col_norms = np.linalg.norm(dense, axis=0)
    assert col_norms[0] / col_norms[-1] > 30.0


def test_max_abs_scaling_flag():
    p = build_problem(*to_dense(*parse_libsvm("+1 1:10 2:1\n-1 1:-20 2:0.5\n")), 1, 0.0, 0, scale_features=True)
    assert np.abs(p.shards[0].features).max() <= 1.0
