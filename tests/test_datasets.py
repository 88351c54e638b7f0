import runpy
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import libsvm_ref
from adacgd import datasets
from adacgd.datasets import (
    LibsvmParseError,
    LibsvmRows,
    SyntheticSpec,
    build_libsvm_problem,
    build_problem,
    make_synthetic,
    parse_libsvm,
    partition,
    to_dense,
)


def test_parse_basic_line():
    rows, dim = parse_libsvm("+1 1:0.5 3:2\n")
    assert dim == 3
    assert rows.labels.tolist() == [1.0]
    dense, labels = to_dense(rows, dim)
    assert np.array_equal(dense[0], [0.5, 0.0, 2.0])
    assert labels[0] == 1.0


def test_parse_label_variants_and_featureless():
    rows, dim = parse_libsvm("-1\n0 2:1\n1 1:3\n+1\n")
    assert rows.labels.tolist() == [-1.0, -1.0, 1.0, 1.0]
    assert rows.offsets.tolist() == [0, 0, 1, 2, 2]
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


@pytest.mark.parametrize("line, message", [
    ("+1 0:1", "feature index must be >= 1, got 0"),
    ("+1 2:1 2:1", "feature indices must be strictly increasing, got 2 after 2"),
    ("+1 1:inf", "feature value at index 1 is not finite"),
    ("+1 9223372036854775808:1", "feature index 9223372036854775808 does not fit in int64"),
    ("+1 -99999999999999999999:1", "feature index must be >= 1, got -99999999999999999999"),
])
def test_parse_errors_word_each_row_rule(line, message):
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(f"-1 1:1\n{line}\n")
    assert err.value.line_number == 2
    assert str(err.value) == f"line 2: {message}"


def test_example_holds_the_row_rules():
    """Parsed rows keep every row rule: indices from 1 to 2**63 - 1, strictly increasing within a row, finite values."""
    rows, dim = parse_libsvm(f"+1 1:1 {2**63 - 1}:-0.5\n-1 1:2 2:1e308\n+1\n0 3:-1e-300\n")
    assert dim == 2**63 - 1
    assert rows.indices.tolist() == [1, 2**63 - 1, 1, 2, 3] and rows.offsets.tolist() == [0, 2, 4, 4, 5]
    assert not np.logical_or.reduce(datasets._rule_breaks(rows.indices, rows.values, rows.offsets)).any()
    for line in ("+1 0:1", "+1 2:1 2:1", "-1 1:inf", f"+1 1:1 {2**63}:1"):  # one broken rule each; worded above
        with pytest.raises(LibsvmParseError):
            parse_libsvm(line)


def test_rows_hold_the_file_in_columnar_form():
    rows, dim = parse_libsvm("+1 1:0.5 3:2\n-1\n0 2:-1\n")
    assert isinstance(rows, LibsvmRows) and dim == 3 and len(rows) == 3
    assert rows.labels.tolist() == [1.0, -1.0, -1.0] and rows.offsets.tolist() == [0, 2, 2, 3]
    assert rows.indices.tolist() == [1, 3, 2] and rows.values.tolist() == [0.5, 2.0, -1.0]
    assert rows.labels.dtype == rows.values.dtype == np.float64
    assert rows.offsets.dtype == rows.indices.dtype == np.int64


def test_index_beyond_int64_is_a_parse_error():
    text = "+1 1:1\n-1 99999999999999999999:1\n"
    assert libsvm_ref.parse_libsvm(text)[1] == 99999999999999999999  # read before indices were int64
    with pytest.raises(LibsvmParseError, match="does not fit in int64") as err:
        parse_libsvm(text)
    assert err.value.line_number == 2
    assert parse_libsvm(f"+1 {2**63 - 1}:1\n")[1] == 2**63 - 1


def test_to_dense_rejects_an_index_beyond_dim():
    rows, _ = parse_libsvm("+1 1:1\n-1 2:1 4:1\n")
    with pytest.raises(ValueError, match="feature index 4 exceeds dimension 3"):
        to_dense(rows, 3)


def test_bytes_input_accepted():
    rows, dim = parse_libsvm(b"+1 2:1.5\n")
    assert dim == 2 and rows.indices.tolist() == [2] and rows.values.tolist() == [1.5]


@pytest.mark.parametrize("raw, message", [
    (b"+1 1:1\n-1 2:1 3:\xff\n", "line 2: invalid UTF-8 byte 0xff (invalid start byte)"),
    (b"+1 1:1\r\n\n-1 2:1\r\xe2\x82", "line 4: invalid UTF-8 byte 0xe2 (unexpected end of data)"),
    (b"+1 1:1\nbad 2:1\n-1 2:1 3:\xff\n", "line 2: invalid label token 'bad'"),  # an earlier line's fault comes first
    (b"+1 1:1\n-1 2:1 2:1\xff\n", "line 2: invalid UTF-8 byte 0xff (invalid start byte)"),  # not in the same line
])
def test_text_that_is_not_utf8_names_its_first_bad_line(raw, message):
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(raw)
    assert str(err.value) == message


def _assert_round_trip(label, feats):
    """A row written as LIBSVM text, each value by its repr, parses back to the same label, indices and value bits."""
    rows, _ = parse_libsvm(" ".join([f"{label:+d}"] + [f"{i}:{v!r}" for i, v in feats]))
    assert rows.labels.tolist() == [label] and rows.offsets.tolist() == [0, len(feats)]
    assert rows.indices.tolist() == [i for i, _ in feats]
    assert rows.values.tobytes() == np.array([v for _, v in feats], dtype=np.float64).tobytes()


def test_example_round_trip_exact():
    _assert_round_trip(1, ((1, 0.1), (3, -2.7182818284590455), (9, 1e-300)))


features_strategy = st.lists(
    st.tuples(st.integers(1, 40), st.floats(min_value=-1e12, max_value=1e12)),
    max_size=8,
    unique_by=lambda t: t[0],
).map(lambda feats: tuple(sorted(feats)))


@given(st.sampled_from([-1, 1]), features_strategy)
def test_round_trip_property(label, feats):
    _assert_round_trip(label, feats)


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


# Pieces of LIBSVM text, valid and broken, for the parity gate below.
_WHITESPACE = [" ", " ", "\t", "  ", "\xa0", "\u2003", "\u3000", "\x1f"]
_BREAKS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_FILLERS = ["", "   ", "# comment", " \xa0 ", "#1:2"]
_GOOD_LABELS = ["+1", "1", "-1", "0"]
_BAD_LABELS = ["2", "abc", "+0", "1.0", "\u0661"]
_ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_INDEX_FORMS = [str, str, lambda i: f"+{i}", lambda i: "_".join(str(i)), lambda i: str(i).translate(_ARABIC_DIGITS)]
_GOOD_VALUES = ["0.5", "-1", "1e-3", "+2", "1_0.5", "\u0663.\u0665", "-0", "7", "1e308"]
_BAD_VALUES = ["nan", "inf", "-inf", "1e400", "0x1", "", "1:2", "1__0"]
_BROKEN_TOKENS = ["5", ":5", "5:", "1:2:3", "x:1", "0:1", "-99999999999999999999:1", "\u00b2:1"]
_FAULTS = ("label", "token", "value", "order")


@st.composite
def _libsvm_line(draw, kind, fault=None):
    """A label and index:value tokens with rising indices, broken in the way ``fault`` names, from ``kind``'s pieces."""
    steps = draw(st.lists(st.tuples(
        kind["steps"],  # the step from the previous index
        st.sampled_from(kind["index_forms"]),
        kind["values"],
    ), min_size=fault in ("value", "order"), max_size=6))
    at = draw(st.integers(0, len(steps)))
    if fault == "order":  # a step of 0 repeats an index; one below 0 makes it fall, maybe to 0 or below
        steps[at - 1] = (draw(st.sampled_from([0, -1, -3])), *steps[at - 1][1:])
    if fault == "value":
        steps[at - 1] = (*steps[at - 1][:2], draw(st.sampled_from(kind["bad_values"])))
    idx, tokens = 0, []
    for step, form, value in steps:
        idx += step
        tokens.append(f"{form(idx)}:{value}")
    if fault == "token":
        tokens.insert(at, draw(st.sampled_from(kind["broken_tokens"])))
    label = draw(st.sampled_from(kind["bad_labels"] if fault == "label" else _GOOD_LABELS))
    sep = draw(st.sampled_from(kind["gaps"]))
    lead, tail = draw(st.sampled_from(["", sep])), draw(st.sampled_from(kind["tails"]))
    return lead + sep.join([label] + tokens) + tail


@st.composite
def _libsvm_text(draw, kind):
    """Up to 8 lines, blank (and, where ``kind`` has them, comment) lines among them, up to two of them broken."""
    faults = [None] * draw(st.integers(0, 8))
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)) if faults else ():
        faults[draw(st.integers(0, len(faults) - 1))] = fault
    any_line = st.one_of(_libsvm_line(kind), st.sampled_from(kind["fillers"]))
    lines = [draw(_libsvm_line(kind, fault) if fault else any_line) for fault in faults]
    breaks = kind["breaks"]
    breaks = [draw(st.sampled_from(breaks)) for _ in lines[:-1]] + [draw(st.sampled_from(["", *breaks]))] * bool(lines)
    return "".join(line + brk for line, brk in zip(lines, breaks))


# Any text: Unicode gaps and line breaks, comments, and every form int and float read.
_ANY_TEXT = dict(
    steps=st.integers(1, 4),
    index_forms=_INDEX_FORMS,
    values=st.one_of(st.floats(-1e6, 1e6).map(repr), st.sampled_from(_GOOD_VALUES)),
    bad_values=_BAD_VALUES,
    broken_tokens=_BROKEN_TOKENS,
    bad_labels=_BAD_LABELS,
    gaps=_WHITESPACE,
    tails=["", "", " # note", "#1:2"],
    fillers=_FILLERS,
    breaks=_BREAKS,
)


def _decimal(sign, digits, point):
    """``digits`` with a '.' before its ``point``-th digit (none past the end) and the sign in front."""
    return sign + (f"{digits[:point]}.{digits[point:]}" if point <= len(digits) else digits)


# Plain text, the array reader's input: ASCII digits, "+-.eE:", spaces, tabs
# and "\n" or "\r\n" line ends. Values cross the 15-digit bound of the exact
# division; indices reach 18 digits.
_PLAIN_TEXT = dict(
    steps=st.sampled_from([1, 1, 2, 3, 4, 10**17]),  # six steps stay below 10**18
    index_forms=[str, str, lambda i: f"{i:03d}"],
    values=st.one_of(
        st.builds(_decimal, st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=17),
                  st.integers(0, 18)),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["1e-3", "1E+2", "-0", ".5", "5.", "+.5", "-0.000", "1e308", "5e-324", "0001.5"]),
    ),
    bad_values=["1e400", "-1e999", "1-2", "", ".", "+", "e5", "1e", "--1", "1.2.3", "1:2"],
    broken_tokens=["5", ":5", "5:", "1:2:3", "e:1", "0:1", "-3:1", "+3:1", "1.0:1"],
    bad_labels=["2", "+0", "1.0", "-", "01", "+1:1"],
    gaps=[" ", " ", "  ", "\t", " \t"],
    tails=["", "", " ", " \t"],
    fillers=["", "   ", "\t"],
    breaks=["\n", "\n", "\r\n", "\n\n"],
)


def _columns(rows):
    """Labels, row offsets, indices and value bytes of parsed rows: LibsvmRows, or the reference's list of Example."""
    if isinstance(rows, LibsvmRows):
        return rows.labels.tolist(), rows.offsets.tolist(), rows.indices.tolist(), rows.values.tobytes()
    entries = [f for e in rows for f in e.features]
    return ([float(e.label) for e in rows], np.cumsum([0] + [len(e.features) for e in rows]).tolist(),
            [i for i, _ in entries], np.array([v for _, v in entries], dtype=np.float64).tobytes())


def _outcome(module, text, parse=None):
    """Rows, dim and dense arrays as bytes, or the error's line and message, of ``parse`` (parse_libsvm by default)."""
    try:
        read = (parse or module.parse_libsvm)(text)
    except module.LibsvmParseError as err:
        return ("error", err.line_number, str(err))
    return _read_outcome(module, read)


def _read_outcome(module, read):
    rows, dim = read
    if dim > 1000:  # too wide to densify: an 18- or 19-digit index
        return ("rows", _columns(rows), dim)
    features, labels = module.to_dense(rows, dim)
    return ("rows", _columns(rows), dim, features.shape, features.tobytes(), labels.tobytes())


def _assert_reads_as_the_reference(text):
    """parse_libsvm gives the reference's outcome on str and bytes, in blocks of any size.

    So does the line reader on every text, though parse_libsvm sends it few
    of them, and the array reader on every plain text it reads at all.
    """
    expected = _outcome(libsvm_ref, text)
    assert _outcome(datasets, text, datasets._parse_lines) == expected
    # Small blocks put lines at every seam of the array reader's blocks.
    for size in (datasets._PLAIN_BLOCK, 3):
        with mock.patch.object(datasets, "_PLAIN_BLOCK", size):
            assert _outcome(datasets, text) == expected
            assert _outcome(datasets, text.encode()) == expected
            data = datasets._plain(text)
            read = None if data is None else datasets._read_plain(data)
            assert read is None or _read_outcome(datasets, read) == expected  # None on every text the reference rejects


@given(_libsvm_text(_ANY_TEXT))
@example("+1 1:1\n-1 3:+2 5:1_0\n1 \u0662:\u0663.5\r\n-1")  # a featureless last line with no line break
@example("+1 1:1\x0b-1\xa02:1 # c\n0 3:nan")
@example("+1 1:1 2:1\n-1 3:1 3:2\nbad 1:1")  # a repeated index before a bad label
@example("+1 4:1 2:1 -99999999999999999999:1\n")
@example("+1 1 2:3:4\n")  # a token with no ':' and one with two, whose pieces would pair up as 1:2 3:4
@example("-1 1:1\n+1 7\n-1 8:9:1\n")
@example("+1 1:2 3:4:5")  # a second ':' in the last token leaves nothing unpaired
@example("+1 1:1\x012:1\x0c3:1\n")  # bytes below b" " that str.split does not split at, or that end a line
def test_parser_matches_the_reference_bit_for_bit(text):
    _assert_reads_as_the_reference(text)


@given(_libsvm_text(_PLAIN_TEXT))
@example("+1 1:999999999999999 2:-0.12345678901234 3:1234567890123456 4:0.1234567890123456\n")  # 15 and 16 digits
@example("-1 1:925.1070446233593\n")  # 16 digits: m / 10**f would round twice, and land one ulp low
@example("+1 1:1.2.3\n")
@example("-1 1:.\n")
@example("+1 1:+\n")
@example("+1 1:1\n+0 2:1\n")  # a label other than "1", "0", "+1" and "-1"
@example("-1 1:-0 2:.5 3:5. 4:+.5 5:1e-3 6:0.30000000000000004")  # a 17-digit repr; no final line break
@example("+1 999999999999999999:1\n-1 1000000000000000000:2\n")  # an 18-digit index, then a 19-digit one
@example("0 007:1 08:2.50\n")
@example("+1 1:1\r2:1\n")  # a lone '\r' is not plain; it ends a line, so "2:1" is a bad label
@example("  \t\n+1\t1:1  2:2 \r\n\r\n-1 3:3\t\r\n\n")
@example("+1 1:1\n-1 0:1\n")  # plain rows that break a row rule: index 0, a repeated index, an overflow
@example("+1 1:1\n-1 2:1 2:3\n")
@example("+1 1:1\n-1 2:1e400\n")
def test_array_reader_matches_the_reference_bit_for_bit(text):
    _assert_reads_as_the_reference(text)


def _benchmark_file(tmp_path):
    """The bytes of the seed-1 libsvm_shards input, as the benchmark writes it, and its row count and dimension."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    rows_written, dim_written = workloads["LIBSVM_ROWS"], workloads["LIBSVM_DIM"]
    data = tmp_path / "shards.svm"
    workloads["write_libsvm"](data, rows_written, dim_written, seed=1)
    return data.read_bytes(), rows_written, dim_written


def test_parser_matches_the_reference_on_a_benchmark_file(tmp_path):
    raw, rows_written, dim_written = _benchmark_file(tmp_path)
    ref_features, ref_labels = libsvm_ref.to_dense(*libsvm_ref.parse_libsvm(raw))
    rows, dim = parse_libsvm(raw)
    features, labels = to_dense(rows, dim)
    assert dim == dim_written and len(rows) == rows_written
    assert features.tobytes() == ref_features.tobytes() and labels.tobytes() == ref_labels.tobytes()


def _commented(raw):
    """``raw`` under a '#' header line, with a trailing comment on every seventh line."""
    lines = raw.split(b"\n")
    return b"# rows: label, then index:value\n" + b"\n".join(
        line + b"  # note" * (k % 7 == 3 and bool(line)) for k, line in enumerate(lines))


def test_array_reader_reads_a_benchmark_file_and_its_crlf_copy(tmp_path):
    """No copy reaches the line reader, so a fallback cannot bring its cost back unseen.

    Plain copies are read as they are; the others, read as their tokens,
    give the same rows.
    """
    raw, _, _ = _benchmark_file(tmp_path)
    expected = _columns(datasets._parse_lines(raw)[0])
    copies = (
        raw,
        raw.replace(b"\n", b"  \r\n"),  # trailing spaces and CRLF, as on many LIBSVM files
        _commented(raw),
        raw.replace(b" ", "\xa0".encode(), 1000),  # 1000 gaps as NBSP
        raw.replace(b"\n", b"\r"),  # lone carriage returns end the lines
    )
    with mock.patch.object(datasets, "_parse_lines", side_effect=AssertionError("the line reader ran")):
        for data in copies:
            assert _columns(parse_libsvm(data)[0]) == expected


def test_array_reader_peaks_below_the_line_reader(tmp_path):
    """Whole-line blocks bound the array reader's temporaries: its traced peak stays below the line reader's."""
    raw, _, _ = _benchmark_file(tmp_path)
    peaks = []
    for read in (datasets._read_plain, datasets._parse_lines):
        tracemalloc.start()
        try:
            read(raw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def _rows_text(n_rows, entries):
    """LIBSVM text of n_rows rows; row r holds ``entries.get(r, "")``, e.g. "2:1.5 7:-0"."""
    return "".join(f"{'+1' if r % 3 else '-1'} {entries.get(r, '')}".rstrip() + "\n" for r in range(n_rows))


def _spread(n_rows, dim, per_row, every):
    """Entries for every ``every``-th row, ``per_row`` indices each, and the last row's at 1 and at dim."""
    entries = {
        r: " ".join(f"{j}:{(r * 7 + j) % 9 - 4}.5" for j in sorted({(r * 5 + k * 3) % dim + 1 for k in range(per_row)}))
        for r in range(0, n_rows, every)
    }
    entries[n_rows - 1] = f"1:0.5 {dim}:2.5"
    return entries


# name: (text, n_clients, scale_features, held in CSR form)
_BOUNDARY = {r: f"{r % 4 + 1}:1.5" for r in range(8)}  # 8 nonzeros in 16 rows of d = 4: exactly 1/8
_ZEROS = {**_spread(30, 12, 2, 3), 4: "2:0 3:-0 9:1", 7: "1:-0.0 12:0.0"}
DIRECT_BUILD_CASES = {
    "uneven-shards": (_rows_text(23, _spread(23, 16, 2, 2)), 4, False, True),
    "uneven-shards-scaled": (_rows_text(23, _spread(23, 16, 2, 2)), 4, True, True),
    "zero-rows-and-an-all-zero-client": (_rows_text(20, {3: "1:2 5:-1", 11: "2:0.25 6:8"}), 5, False, True),
    "d1-one-client": (_rows_text(17, {2: "1:3", 9: "1:-0.5"}), 1, False, True),
    "d1-one-client-scaled": (_rows_text(17, {2: "1:3", 9: "1:-0.5"}), 1, True, True),
    "explicit-and-negative-zeros": (_rows_text(30, _ZEROS), 3, False, True),
    "explicit-and-negative-zeros-scaled": (_rows_text(30, _ZEROS), 3, True, True),
    "all-zero-column-scaled": (_rows_text(24, {0: "1:2 8:1", 5: "3:0 8:-4", 13: "1:-1", 19: "2:7"}), 4, True, True),
    "value-scaling-to-zero": (_rows_text(24, {0: "1:1e300 8:1", 5: "1:1e-320 2:3", 13: "8:-1"}), 3, True, True),
    "boundary": (_rows_text(16, _BOUNDARY), 2, False, True),
    "boundary-plus-one": (_rows_text(16, {**_BOUNDARY, 9: "2:-3"}), 2, False, False),
    "boundary-plus-one-scaled": (_rows_text(16, {**_BOUNDARY, 9: "2:-3"}), 2, True, False),
    # The ninth nonzero is 1e-320 under a column maximum of 1e300: it scales to 0, and the rows stay CSR.
    "boundary-plus-an-underflow-scaled": (_rows_text(16, {**_BOUNDARY, 0: "1:1e300", 9: "1:1e-320"}), 2, True, True),
    "boundary-plus-an-underflow-unscaled": (_rows_text(16, {**_BOUNDARY, 0: "1:1e300", 9: "1:1e-320"}), 2, False, False),
}
# Unscaled, 1e300 squared overflows the smoothness bound, so no stepsize exists and nothing is run.
_NOT_RUN = {"boundary-plus-an-underflow-unscaled"}


@pytest.mark.parametrize("name", DIRECT_BUILD_CASES)
def test_direct_build_is_the_dense_entry(tmp_path, monkeypatch, name):
    """build_libsvm_problem(*parse_libsvm(text)) against build_problem(*to_dense(*parse_libsvm(text))).

    Same storage, same CSR arrays and index dtypes, the same densified shards
    byte for byte, and the same run files.
    """
    from adacgd import experiments

    text, n_clients, scale, sparse = DIRECT_BUILD_CASES[name]
    rows, dim = parse_libsvm(text)
    assert rows.indices.max() == dim  # the largest index is the dimension
    direct = build_libsvm_problem(rows, dim, n_clients, 0.1, 3, scale)
    dense = build_problem(*to_dense(rows, dim), n_clients, 0.1, 3, scale_features=scale)
    assert direct.rows.sparse == dense.rows.sparse == sparse
    if sparse:
        for a, b in [(direct.rows.matrix.data, dense.rows.matrix.data),
                     (direct.rows.matrix.indices, dense.rows.matrix.indices),
                     (direct.rows.matrix.indptr, dense.rows.matrix.indptr),
                     (direct.rows.labels, dense.rows.labels), (direct.rows.offsets, dense.rows.offsets)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert direct.rows.matrix.indices.dtype == np.int32
        assert 0.0 not in direct.rows.matrix.data  # explicit zeros, -0 and values that scale to 0 are dropped
    assert len(direct.shards) == len(dense.shards) == n_clients
    for a, b in zip(direct.shards, dense.shards):
        assert a.features.tobytes() == b.features.tobytes() and a.labels.tobytes() == b.labels.tobytes()
    if name in _NOT_RUN:
        return
    path = tmp_path / "rows.svm"
    path.write_text(text)
    config = experiments.RunConfig(dataset=str(path), n_clients=n_clients, methods=("gd", "ef21:k=1"), multipliers=(1.0,),
                                   max_rounds=6, seed=3, scale_features=scale, out_dir=str(tmp_path / "direct"))
    experiments.run_experiment(config)
    build = experiments.build_dataset
    monkeypatch.setattr(experiments, "build_dataset", lambda config: (dense, build(config)[1]))
    experiments.run_experiment(replace(config, out_dir=str(tmp_path / "dense")))
    written = {p.name: p.read_bytes() for p in sorted((tmp_path / "direct").iterdir())}
    assert len(written) == 3
    assert written == {p.name: p.read_bytes() for p in sorted((tmp_path / "dense").iterdir())}


def test_direct_build_rejects_what_the_dense_entry_rejects():
    rows, dim = parse_libsvm("+1 1:1\n-1 3:2\n+1\n-1\n+1\n-1\n+1\n-1\n+1\n-1\n")
    with pytest.raises(ValueError, match="feature index 3 exceeds dimension 2"):
        build_libsvm_problem(rows, 2, 2, 0.1, 0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        build_libsvm_problem(*parse_libsvm("+1\n-1\n"), 1, 0.1, 0)
    with pytest.raises(ValueError, match="cannot split 10 examples into 11 shards"):
        build_libsvm_problem(rows, dim, 11, 0.1, 0)
