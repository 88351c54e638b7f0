"""LIBSVM-format parsing, deterministic client partitioning, synthetic data.

One example per line: a label token ("+1"/"1" map to +1, "-1"/"0" to -1)
followed by ``index:value`` tokens with strictly increasing 1-based indices
and finite values. Lines end where ``str.splitlines`` ends them (``\n``,
``\r\n``, ``\r``, ``\x0b``, ``\x0c``, ``\x85``, ``\u2028`` and the other
Unicode line breaks), anything from '#' to the end of a line is a comment,
blank lines are skipped, and tokens are separated by any run of Unicode
whitespace (``str.split``), NBSP included. A feature token holds exactly one
':'; Python's ``int`` reads its index and ``float`` its value, so ``+3``,
``1_0``, non-ASCII decimal digits, ``1e-3`` and ``inf`` all read as those
functions read them, and a value that is not finite (``nan``, ``inf``,
``1e400``) is rejected. Indices are held as int64, so an index of 2**63 or
more is rejected too, and bytes must be UTF-8. Every rejection is a
:class:`LibsvmParseError` naming the first bad line.

Two readers give the same rows, and the same errors. Plain bytes (ASCII
digits, ``+-.eE:``, spaces, tabs and ``\n``; a ``\r`` only right before a
``\n``; so no ``#``) go as they are to an array reader, which finds tokens
and lines with NumPy a block of whole lines (about 256 KiB) at a time. It
reads a value of at most 15 digits and no exponent as ``m / 10**f``:
``m < 2**53`` and ``10**f`` are exact doubles, so the one correctly rounded
division gives the double nearest the decimal, which is what ``float``
returns (Clinger, PLDI 1990); every other value goes to ``float`` itself.
Other text is read as its tokens: rebuilt with one space between tokens and
one ``\n`` between lines, it goes to the array reader if that is plain.
Tokens only ``int`` or ``float`` accept (``1_0``, a signed index, non-ASCII
digits), and faulty text, go whole to the slower per-line reader, which
words every error.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import expit

from .core import SeededRng
from .problems import LOGISTIC, Problem, _mostly_zero, _sparse_rows

_PARTITION_STREAM = 101
_SYNTHETIC_STREAM = 102

_LABELS = {"+1": 1, "1": 1, "-1": -1, "0": -1}
_INDEX_BOUND = 2**63  # indices are held as int64


class LibsvmParseError(ValueError):
    """Parse failure carrying the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _rule_breaks(indices: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row rules as entry masks: index below 1, index not above the one before it in its row, value not finite.

    Row ``i`` holds the entries ``offsets[i]:offsets[i + 1]``.
    """
    prev = np.empty_like(indices)
    prev[1:] = indices[:-1]
    prev[offsets[:-1][offsets[:-1] < offsets[1:]]] = 0  # the first entry of every non-empty row
    return indices < 1, indices <= prev, ~np.isfinite(values)


@dataclass(frozen=True, eq=False)
class LibsvmRows:
    """Parsed LIBSVM rows in columnar (CSR) form.

    Row ``i`` has the label ``labels[i]`` and the entries
    ``offsets[i]:offsets[i + 1]`` of ``indices`` and ``values``.
    :func:`parse_libsvm` builds it with every row keeping the row rules:
    indices from 1 to 2**63 - 1, strictly increasing within the row, and
    finite values.
    """

    labels: np.ndarray  # (N,) float64, +1 or -1
    offsets: np.ndarray  # (N + 1,) int64, offsets[0] == 0 and offsets[N] == nnz
    indices: np.ndarray  # (nnz,) int64, 1-based
    values: np.ndarray  # (nnz,) float64

    def __len__(self) -> int:
        return self.labels.shape[0]


def _fields(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def _read_line(lineno: int, line: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Read one non-blank line token by token: its label, indices and values.

    Raises the :class:`LibsvmParseError` that words the line's first fault,
    if it has one.
    """
    head, *tokens = _fields(line)
    label = _LABELS.get(head)
    if label is None:
        raise LibsvmParseError(lineno, f"invalid label token {head!r}")
    idx: list[int] = []
    val: list[float] = []
    for tok in tokens:
        idx_str, colon, val_str = tok.partition(":")
        if not colon:
            raise LibsvmParseError(lineno, f"expected index:value, got {tok!r}")
        try:
            idx.append(int(idx_str))
        except ValueError:
            raise LibsvmParseError(lineno, f"non-numeric feature index {idx_str!r}") from None
        try:
            val.append(float(val_str))
        except ValueError:
            raise LibsvmParseError(lineno, f"non-numeric feature value {val_str!r}") from None
    if max(idx, default=0) >= _INDEX_BOUND:
        raise LibsvmParseError(lineno, f"feature index {max(idx)} does not fit in int64")
    # An index below 1 breaks the first rule whatever its value, so 0 stands in for it.
    indices = np.array([max(i, 0) for i in idx], dtype=np.int64)
    values = np.array(val, dtype=np.float64)
    low, unordered, nonfinite = _rule_breaks(indices, values, np.array([0, len(idx)]))
    bad = low | unordered | nonfinite
    if not bad.any():
        return label, indices, values
    j = int(bad.argmax())
    if low[j]:
        raise LibsvmParseError(lineno, f"feature index must be >= 1, got {idx[j]}")
    if unordered[j]:
        raise LibsvmParseError(lineno, f"feature indices must be strictly increasing, got {idx[j]} after {idx[j - 1]}")
    raise LibsvmParseError(lineno, f"feature value at index {idx[j]} is not finite")


def _decode(text) -> str:
    """``text`` as str, bytes decoded as UTF-8.

    Bytes that are not UTF-8 raise the error of the first bad line, which may
    come before the line that holds the bad byte.
    """
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as err:
        *complete, _ = (text[: err.start].decode("utf-8") + "x").splitlines()
        _parse_lines("\n".join(complete))
        message = f"invalid UTF-8 byte 0x{text[err.start]:02x} ({err.reason})"
        raise LibsvmParseError(len(complete) + 1, message) from None


def _parse_lines(text) -> tuple[LibsvmRows, int]:
    """Read any LIBSVM text line by line, in file order, so the first bad line is the one reported."""
    read = [_read_line(at, line) for at, line in enumerate(_decode(text).splitlines(), start=1) if _fields(line)]
    indices = np.concatenate([np.empty(0, dtype=np.int64), *(idx for _, idx, _ in read)])
    values = np.concatenate([np.empty(0), *(val for _, _, val in read)])
    labels = np.array([label for label, _, _ in read], dtype=np.float64)
    rows = LibsvmRows(labels, np.cumsum([0, *(idx.size for _, idx, _ in read)]), indices, values)
    return rows, int(indices.max()) if indices.size else 0


# The array reader takes plain LIBSVM bytes: ASCII digits, "+-.eE:", space,
# tab and "\n", with "\r" only right before a "\n". Of these, the bytes up to
# b" " are the gaps between tokens.
_PLAIN = b"0123456789+-.eE: \t\r\n"
_INDEX_DIGITS = 18  # every 18-digit index fits in int64
# A value of at most 15 digits and no exponent is m / 10**f with m < 2**53 and
# 10**f exact, so one IEEE division rounds it as float() does (Clinger 1990).
_EXACT_DIGITS = 15
_POW10 = np.array([float(10**f) for f in range(_EXACT_DIGITS + 1)])
_PLAIN_BLOCK = 1 << 18  # bytes per block of whole lines: bounds the array reader's temporaries


def _read_digits(digit: np.ndarray, start: np.ndarray, length: np.ndarray):
    """Read the spans ``start[k]:start[k] + length[k]`` of ``digit`` (bytes minus b"0") a column at a time.

    Returns each span's digits as one int64 (a '.' skipped), its digit
    count, its count of digits after a '.', and its '.' count. A span
    holding other bytes has fewer digits and dots than bytes. The spans
    must be at most 18 bytes long, so the number fits.
    """
    number = np.zeros(start.shape, dtype=np.int64)
    digits, fraction, dots = (np.zeros(start.shape, dtype=np.uint8) for _ in range(3))
    for j in range(int(length.max(initial=0))):
        d = digit.take(start + j, mode="clip")
        on = j < length
        is_digit = (d <= 9) & on
        number = np.where(is_digit, number * 10 + d, number)
        digits += is_digit
        fraction += is_digit & (dots > 0)
        dots += (d == 254) & on  # "." - "0" wraps to 254
    return number, digits, fraction, dots


def _read_plain_block(chunk: bytes):
    """Labels, row entry counts, indices and values of whole plain lines; None where the array reader cannot read them.

    None sends the text to :func:`_parse_lines`, which reads or words
    what this reader does not: a token other than a label or
    ``digits:value``, a broken row rule, a value ``float`` rejects.
    """
    chunk = b" " + chunk + b" "  # so every token has a byte on both sides
    b = np.frombuffer(chunk, dtype=np.uint8)
    gap = b <= 32
    edges = np.flatnonzero(gap[1:] != gap[:-1]) + 1
    start, end = edges[0::2], edges[1::2]
    head = np.zeros(start.shape, dtype=bool)  # the first token of a line is its label
    head[:1] = True
    after_break = np.searchsorted(start, np.flatnonzero(b == 10))
    head[after_break[after_break < head.size]] = True

    rows = np.flatnonzero(head)  # each row's label token
    first, last, width = b[start[rows]], b[end[rows] - 1], end[rows] - start[rows]
    signed = (width == 2) & (last == 49) & ((first == 43) | (first == 45))
    if not np.where(width == 1, (first == 49) | (first == 48), signed).all():  # "1", "0", "+1" or "-1"
        return None
    labels = np.where((first == 49) | (first == 43), 1.0, -1.0)

    start, end = start[~head], end[~head]
    colon = np.flatnonzero(b == 58)  # the k-th ':' must split the k-th feature token, with bytes on both sides
    if colon.shape != start.shape or not ((start < colon) & (colon < end - 1)).all():
        return None
    digit = b - 48  # uint8: a byte below b"0" wraps above 9
    size = colon - start
    indices, digits, _, _ = _read_digits(digit, start, np.where(size <= _INDEX_DIGITS, size, 0))
    if (digits != size).any():
        return None
    sign = b[colon + 1]
    negative = sign == 45
    lead = colon + 1 + (negative | (sign == 43))
    size = end - lead
    # A longer value, left unread here, goes to float: at most 15 digits and a '.' take the exact division.
    number, digits, fraction, dots = _read_digits(digit, lead, np.where(size <= _EXACT_DIGITS + 1, size, 0))
    values = number / _POW10[fraction]
    np.negative(values, out=values, where=negative)
    inexact = np.flatnonzero((digits + dots != size) | (dots > 1) | (digits < 1) | (digits > _EXACT_DIGITS))
    try:  # every other value token, by float itself
        values[inexact] = [float(chunk[i:j]) for i, j in zip((colon[inexact] + 1).tolist(), end[inexact].tolist())]
    except ValueError:
        return None

    offsets = np.append(rows - np.arange(rows.size), indices.size)  # each row's first entry, then the entry count
    if np.logical_or.reduce(_rule_breaks(indices, values, offsets)).any():
        return None
    return labels, np.diff(offsets), indices, values


def _plain(text) -> Optional[bytes]:
    """The bytes of ``text`` (str or bytes) if plain, else None; checked a block at a time, so no temporary grows."""
    data = text.encode("ascii") if isinstance(text, str) and text.isascii() else text
    if isinstance(data, str) or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):  # a lone '\r' ends a line
        return None
    blocks = range(0, len(data), _PLAIN_BLOCK)
    return None if any(data[at : at + _PLAIN_BLOCK].translate(None, _PLAIN) for at in blocks) else data


def _read_plain(data: bytes) -> Optional[tuple[LibsvmRows, int]]:
    """Read plain bytes a block of whole lines (about ``_PLAIN_BLOCK`` bytes) at a time; None if one cannot be read."""
    blocks, at = [], 0
    while at < len(data) or not blocks:  # empty data is one block
        stop, end = at + _PLAIN_BLOCK, len(data)
        if stop < end:  # up to the last line break before stop, or else the first after it
            end = data.rfind(b"\n", at, stop) + 1 or data.find(b"\n", stop) + 1 or end
        blocks.append(_read_plain_block(data[at:end]))
        if blocks[-1] is None:
            return None
        at = end
    labels, counts, indices, values = (np.concatenate(column) for column in zip(*blocks))
    rows = LibsvmRows(labels, np.concatenate([[0], np.cumsum(counts)]), indices, values)
    return rows, int(indices.max()) if indices.size else 0


def parse_libsvm(text) -> tuple[LibsvmRows, int]:
    """Parse LIBSVM text into :class:`LibsvmRows` and the inferred dimension.

    The inferred dimension is the maximum feature index seen. Accepts
    ``str`` or UTF-8 ``bytes``. Plain text goes to the array reader as it
    is. Any other text is decoded once and rebuilt as its tokens, one line
    per line, and goes to the array reader if that is plain. Every text the
    array reader cannot read goes whole to the line reader, so the rows and
    every error are the same whichever reader ran.
    """
    data = _plain(text)
    if data is None:
        text = _decode(text)
        data = _plain("\n".join(" ".join(_fields(line)) for line in text.splitlines()))
    read = None if data is None else _read_plain(data)
    return _parse_lines(text) if read is None else read


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive split of example indices into n shards."""

    shards: tuple[tuple[int, ...], ...]
    seed: int


def partition(examples: Sequence, n: int, seed: int) -> Partition:
    """Shuffle deterministically, then cut into n near-equal contiguous blocks.

    The first (N mod n) shards receive one extra example.
    """
    count = len(examples)
    if n < 1:
        raise ValueError(f"need at least one shard, got n={n}")
    if n > count:
        raise ValueError(f"cannot split {count} examples into {n} shards")
    order = SeededRng(seed, _PARTITION_STREAM).generator().permutation(count)
    return Partition(tuple(tuple(block.tolist()) for block in np.array_split(order, n)), seed)


def _check_dim(rows: LibsvmRows, dim: int) -> None:
    over = rows.indices > dim
    if over.any():
        raise ValueError(f"feature index {rows.indices[over.argmax()]} exceeds dimension {dim}")


def to_dense(rows: LibsvmRows, dim: int, order: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Materialize rows as a dense (N, dim) matrix and a label vector.

    Row i of both is row i of ``rows``, or row ``order[i]`` when a
    permutation ``order`` is given.
    """
    _check_dim(rows, dim)
    n = len(rows)
    position = np.arange(n)  # the output row of each input row
    if order is not None:
        position[order] = np.arange(n)
    features = np.zeros((n, dim), dtype=np.float64)
    features[np.repeat(position, np.diff(rows.offsets)), rows.indices - 1] = rows.values
    return features, (rows.labels.copy() if order is None else rows.labels[order])


def max_abs_scale(features: np.ndarray) -> np.ndarray:
    """Scale each feature column by its max absolute value (zero columns kept)."""
    scale = np.max(np.abs(features), axis=0)
    scale[scale == 0.0] = 1.0
    return features / scale


def _reorder_rows(a: np.ndarray, order: np.ndarray, chunk: int = 64) -> None:
    """Set ``a[:] = a[order]`` in place, holding at most ``chunk`` rows aside.

    Each cycle of the permutation is shifted along ``chunk`` rows at a time,
    so no second copy of ``a`` is made.
    """
    nxt = order.tolist()
    seen = bytearray(len(nxt))
    for start in range(len(nxt)):
        if seen[start] or nxt[start] == start:
            continue
        cycle = [start]
        j = nxt[start]
        while j != start:
            seen[j] = 1
            cycle.append(j)
            j = nxt[j]
        c = np.array(cycle, dtype=np.intp)
        first = a[start].copy()
        for t in range(0, len(c) - 1, chunk):
            idx = c[t : t + chunk + 1]
            a[idx[:-1]] = a[idx[1:]]  # row c[t] takes row c[t + 1] = order[c[t]]
        a[c[-1]] = first


def _client_order(labels: np.ndarray, n_clients: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """The row order that lists client 0's rows, then client 1's, ...; and each client's row count."""
    part = partition(labels, n_clients, seed)
    order = np.fromiter((j for block in part.shards for j in block), dtype=np.intp, count=labels.shape[0])
    return order, [len(block) for block in part.shards]


def build_problem(
    features: np.ndarray,
    labels: np.ndarray,
    n_clients: int,
    lam: float,
    seed: int,
    scale_features: bool = False,
    *,
    copy: bool = True,
) -> Problem:
    """Partition the rows of (features, labels) across clients; assemble the logistic objective.

    The dimension is ``features.shape[1]``. The problem holds the feature
    rows once, in client order. With ``copy=False`` it takes ``features``
    itself as that storage and reorders its rows in place, so a caller that
    built the array for this call never holds the data twice; such a caller
    must not use the array afterwards. The problem checks finite features,
    +-1 labels and a positive dimension.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ValueError(f"need (N, d) features and N labels, got shapes {features.shape} and {labels.shape}")
    order, sizes = _client_order(labels, n_clients, seed)
    if scale_features:
        features = max_abs_scale(features)  # a new array
    elif copy:
        features = features.copy()
    _reorder_rows(features, order)
    return Problem.partitioned(features, labels[order], sizes, lam)


def build_libsvm_problem(
    rows: LibsvmRows, dim: int, n_clients: int, lam: float, seed: int, scale_features: bool = False
) -> Problem:
    """``build_problem(*to_dense(rows, dim), n_clients, lam, seed, scale_features)``, bit for bit.

    Features are scaled on the entries: the column maxima come from them,
    and each value is divided once, as on the dense matrix. Rows that are
    then at most 1/8 nonzero are gathered straight into client order as
    CSR entries and never densified. Denser rows are densified straight
    into client order, so no dense row is moved afterwards.
    """
    _check_dim(rows, dim)
    order, sizes = _client_order(rows.labels, n_clients, seed)
    if scale_features:  # max_abs_scale, on the entries
        scale = np.zeros(dim)
        np.maximum.at(scale, rows.indices - 1, np.abs(rows.values))
        scale[scale == 0.0] = 1.0
        rows = replace(rows, values=rows.values / scale[rows.indices - 1])
    if not _mostly_zero(np.count_nonzero(rows.values), len(rows) * dim):
        return Problem.partitioned(*to_dense(rows, dim, order), sizes, lam)
    counts = np.diff(rows.offsets)[order]
    ends = np.cumsum(counts)
    take = np.repeat(rows.offsets[order] - (ends - counts), counts)  # row order[r]'s entries, in index order
    take += np.arange(take.size)
    csr = _sparse_rows(counts, rows.indices[take] - 1, rows.values[take], rows.labels[order], sizes, dim)
    return Problem(LOGISTIC, dim, lam, n_clients, csr)


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic generator parameters for a synthetic classification set.

    ``cond`` spreads per-feature scales geometrically over [1/cond, 1],
    ill-conditioning the logistic curvature the way real tabular data does.
    """

    n_examples: int
    dim: int
    seed: int
    scale: float = 1.0
    label_flip: float = 0.0
    cond: float = 1.0

    def __post_init__(self) -> None:
        if self.n_examples < 1 or self.dim < 1:
            raise ValueError(f"need n_examples >= 1 and dim >= 1, got {self.n_examples} and {self.dim}")
        if not 0.0 <= self.label_flip <= 1.0:
            raise ValueError(f"label_flip must lie in [0, 1], got {self.label_flip}")
        if not self.cond >= 1.0:
            raise ValueError(f"cond must be >= 1, got {self.cond}")

    def key(self) -> str:
        return (
            f"synthetic:n={self.n_examples},d={self.dim},seed={self.seed},"
            f"scale={self.scale!r},flip={self.label_flip!r},cond={self.cond!r}"
        )


def make_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian (N, d) features with Bernoulli +-1 labels from a random linear model.

    Labels are drawn from the model's own link probability, so classes
    overlap and the logistic minimizer stays finite.
    """
    g = SeededRng(spec.seed, _SYNTHETIC_STREAM).generator()
    a = g.standard_normal((spec.n_examples, spec.dim)) * spec.scale
    if spec.cond > 1.0 and spec.dim > 1:
        exponents = np.arange(spec.dim) / (spec.dim - 1)
        a *= spec.cond ** (-exponents)
    w = g.standard_normal(spec.dim) / np.sqrt(spec.dim)
    prob = expit(a @ w)
    y = np.where(g.random(spec.n_examples) < prob, 1.0, -1.0)
    if spec.label_flip > 0:
        flips = g.random(spec.n_examples) < spec.label_flip
        y = np.where(flips, -y, y)
    return a, y
