"""Contractive sparsifiers and three-point compression rules.

A contractive sparsifier maps a vector to a cheaper-to-transmit vector whose
squared error is at most (1 - alpha) times the input's squared norm. A
three-point rule compresses a fresh vector x relative to the carried state h
and the previously seen vector y; the shipped rules are the error-feedback
shift (EF21), lazy aggregation (LAG), their combination (CLAG), a multi-level
adaptive rule (AdaCGD), and a generic predicate-dispatched chain (Ada3PC).
Each rule is one spec class holding its map and its certified inequality
constants. The map acts on (n, d) stacks row by row, each row on its own, so
the engine compresses every worker's message in one call; ``compress`` is
the public single-vector entry point (the one-row stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .core import (
    SeededRng,
    ThreePCConstants,
    as_vector,
    check_same_dim,
    combine_constants,
    row_sqnorms,
    stream_generators,
)

TOPK = "topk"
RANDK = "randk"
IDENTITY = "identity"


@dataclass(frozen=True)
class ContractorSpec:
    """A contractive sparsifier: top-k by magnitude, random-k, or identity."""

    kind: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (TOPK, RANDK, IDENTITY):
            raise ValueError(f"unknown contractor kind {self.kind!r}")
        if self.kind != IDENTITY and self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")

    @staticmethod
    def top_k(k: int) -> "ContractorSpec":
        return ContractorSpec(TOPK, k)

    @staticmethod
    def rand_k(k: int) -> "ContractorSpec":
        return ContractorSpec(RANDK, k)

    @staticmethod
    def identity() -> "ContractorSpec":
        return ContractorSpec(IDENTITY)

    def alpha(self, dim: int) -> float:
        """Contraction parameter at the dimension where the map is applied."""
        if self.kind == IDENTITY:
            return 1.0
        if self.k > dim:
            raise ValueError(f"k={self.k} exceeds dimension {dim}")
        return self.k / dim

    @property
    def randomized(self) -> bool:
        return self.kind == RANDK


def _magnitude_keys(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """-|x|, with NaN as +inf: last, as a stable sort ranks NaN, and equal to itself."""
    keys = np.abs(x, out=out)
    np.negative(keys, out=keys)
    return np.fmin(keys, np.inf, out=keys)


def _top_k_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Each row's k largest-magnitude coordinates, ascending: the first k of
    the stable order of -|x|, so ties go to the lowest index and NaN ranks last.

    Those are each row's keys below its k-th least key, then its lowest-index
    keys equal to that one, as many as there is room for; one partition per
    call finds the k-th least key without sorting the row, and a mask of the
    keys kept gives them in index order.
    """
    keys = _magnitude_keys(x)
    if k == 1:
        # The first least key, in one pass: highdim_bidir's rounds/s read 2.8%
        # above the partition's in 9 of 10 pairs (BENCH_26.json, shortcuts).
        return np.argmin(keys, axis=1)[:, None]
    m, d = keys.shape
    keys.partition(k - 1, axis=1)
    kth = keys[:, k - 1 : k].copy()
    take = _magnitude_keys(x, out=keys) <= kth  # the keys again, in index order
    tied = np.flatnonzero(np.add.reduce(take, axis=1) > k)  # rows where the k-th key recurs past the cut
    if tied.size:
        keys, kth = keys[tied], kth[tied]
        less, at = keys < kth, keys == kth
        room = k - np.add.reduce(less, axis=1)
        take[tied] = less | (at & (np.cumsum(at, axis=1) <= room[:, None]))
    del keys  # with the keys gone, the supports are the call's largest array
    kept = np.flatnonzero(take).reshape(m, k)
    kept -= (np.arange(m) * d)[:, None]
    return kept


def _contract_support(c: ContractorSpec, x: np.ndarray, rngs: Optional[Sequence[SeededRng]]) -> Optional[np.ndarray]:
    """Indices kept by the sparsifier in each row of the (m, d) stack x, as an
    (m, k) array sorted along rows, or None for the identity (full) map.

    Rand-k row i draws from ``rngs[i]``.
    """
    d = x.shape[1]
    if c.kind == IDENTITY:
        return None
    if c.k > d:
        raise ValueError(f"k={c.k} exceeds dimension {d}")
    if c.kind == TOPK:
        return _top_k_indices(x, c.k)
    if rngs is None:
        raise ValueError("rand-k contractor needs an rng stream")
    idx = np.empty((x.shape[0], c.k), dtype=np.int64)
    for row, g in zip(idx, stream_generators(rngs), strict=True):
        row[:] = g.choice(d, size=c.k, replace=False)
    idx.sort(axis=1)
    return idx


def _flat_positions(idx: np.ndarray, dim: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
    # Positions of row-wise column indices in a flattened stack of width dim,
    # grouped by row: one 1-D gather or scatter serves every row. Row i of
    # idx belongs to row ``rows[i]`` of the stack (row i when rows is None).
    starts = np.arange(idx.shape[0]) if rows is None else rows
    return (idx + (starts * dim)[:, None]).reshape(-1)


def _shift_entries(
    h: np.ndarray, x: np.ndarray, kept: np.ndarray, rows: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shift map h + C(x - h) where C keeps coordinates ``kept``: row i
    of ``kept`` belongs to stack row ``rows[i]`` (row i when rows is None).

    Returns the kept entries' flat positions in the stacks, the deltas x - h
    sent there and the new entries h + delta, all grouped by row. Only the
    kept entries are computed, each as a whole x - h would hold it.
    """
    positions = _flat_positions(kept, h.shape[1], rows)
    values = x.reshape(-1)[positions]
    shifted = h.reshape(-1)[positions]
    values -= shifted
    shifted += values
    return positions, values, shifted


def _one_stream(rng: Optional[SeededRng]) -> Optional[list[SeededRng]]:
    return None if rng is None else [rng]


def _branch_streams(
    rngs: Optional[Sequence[SeededRng]], rows: np.ndarray, branch: int, draws: bool
) -> Optional[list[SeededRng]]:
    """Branch ``branch``'s stream derived from each of ``rows``' streams, or None when it does not draw."""
    return [rngs[i].derive(branch) for i in rows] if rngs is not None and draws else None


def _contract_rows(c: ContractorSpec, x: np.ndarray, rngs: Optional[Sequence[SeededRng]]) -> np.ndarray:
    """The sparsifier on each row of the (m, d) stack x; rand-k row i draws from ``rngs[i]``."""
    support = _contract_support(c, x, rngs)
    if support is None:
        return x.copy()
    flat = _flat_positions(support, x.shape[1])
    out = np.zeros_like(x)
    out.reshape(-1)[flat] = x.reshape(-1)[flat]
    return out


def apply_contractor(c: ContractorSpec, x, rng: Optional[SeededRng] = None) -> np.ndarray:
    """Apply the sparsifier; kept coordinates pass through unscaled."""
    return _contract_rows(c, as_vector(x)[None], _one_stream(rng))[0]


# Kind codes of a row's message: a skip row sends nothing, a sparse row
# sends x - h at some coordinates, and a full row sends its vector.
SKIP, SPARSE, FULL = range(3)


@dataclass(frozen=True)
class CompressedRows:
    """A rule's messages for (n, d) stacks; row i is the message of input row i.

    ``vectors`` holds the compressed vectors and ``branches`` the branch
    indices. ``kinds`` gives each row's payload kind code (SKIP, SPARSE or
    FULL) and ``entries`` the values each row sends sparsely (0 for skip
    and full rows). ``sparse`` lists the sparse rows in blocks
    ``(rows, indices, values)``, one per group of rows sent together: stack
    row ``rows[r]`` sends x - h at its ascending coordinates ``indices[r]``
    as ``values[r]``. A full row sends its vector.
    """

    vectors: np.ndarray
    branches: np.ndarray
    kinds: np.ndarray
    entries: np.ndarray
    sparse: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def _set(self, rows: np.ndarray, branch: int, sub: "CompressedRows") -> None:
        # Rows ``rows`` take the rows of ``sub``, in order, under branch index ``branch``.
        self.vectors[rows] = sub.vectors
        self.branches[rows] = branch
        self.kinds[rows] = sub.kinds
        self.entries[rows] = sub.entries
        self.sparse.extend((rows[sub_rows], indices, values) for sub_rows, indices, values in sub.sparse)

    def _write_shift(
        self, rows: np.ndarray, kept: np.ndarray, positions: np.ndarray, values: np.ndarray, shifted: np.ndarray
    ) -> None:
        # Stack rows ``rows`` send sparse payloads: the deltas ``values`` at
        # coordinates ``kept``, taking ``shifted`` at flat ``positions``.
        self.vectors.reshape(-1)[positions] = shifted
        self.kinds[rows] = SPARSE
        self.entries[rows] = kept.shape[1]
        self.sparse.append((rows, kept, values.reshape(kept.shape)))


def _skipping(h: np.ndarray) -> CompressedRows:
    """Every row keeps its h on branch 0 (skip): the start a rule fills in."""
    n = h.shape[0]
    return CompressedRows(
        h.copy(), np.zeros(n, dtype=np.int64), np.full(n, SKIP, dtype=np.int8), np.zeros(n, dtype=np.int64), []
    )


def _payload_view(rows: CompressedRows) -> tuple[np.ndarray, np.ndarray]:
    """Every row's sparse payload as two dense (n, d) arrays: the mask of the
    coordinates it sends and the values sent there (+0.0 elsewhere)."""
    n, d = rows.vectors.shape
    kept = np.zeros((n, d), dtype=bool)
    sent = np.zeros((n, d))
    for block_rows, indices, values in rows.sparse:
        positions = _flat_positions(indices, d, block_rows)
        kept.reshape(-1)[positions] = True
        sent.reshape(-1)[positions] = values.reshape(-1)
    return kept, sent


def reconstruct(h: np.ndarray, rows: CompressedRows) -> np.ndarray:
    """Receiver side: every row's compressed vector, rebuilt from the (n, d) states h.

    Reads only what crosses the wire: a skip row keeps h, a sparse row adds
    its sent values to h at its sent coordinates, a full row is its vector.
    """
    kept, sent = _payload_view(rows)
    out = np.where(kept, h + sent, h)
    full = rows.kinds == FULL
    out[full] = rows.vectors[full]
    return out


def _ef21_raw(
    contractor: ContractorSpec,
    h: np.ndarray,
    x: np.ndarray,
    rngs: Optional[Sequence[SeededRng]],
    delta: Optional[np.ndarray] = None,
) -> CompressedRows:
    """The shift map h + C(x - h) on the rows of (m, d) stacks; callers that
    already hold ``delta = x - h`` pass it in."""
    if contractor.kind == IDENTITY:
        # Mathematically h + (x - h) = x; return x itself to keep the
        # pass-through path bitwise exact.
        out = _skipping(x)  # every row sends x in full
        out.kinds[:] = FULL
        return out
    kept = _contract_support(contractor, x - h if delta is None else delta, rngs)
    out = _skipping(h)
    out._write_shift(np.arange(x.shape[0]), kept, *_shift_entries(h, x, kept))
    return out


def ef21_constants(alpha: float) -> ThreePCConstants:
    """Inequality constants of the shift rule for contraction parameter alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return ThreePCConstants(1.0, 0.0)
    # a = 1 - sqrt(1 - alpha), written in the cancellation-free form.
    a = alpha / (1.0 + math.sqrt(1.0 - alpha))
    return ThreePCConstants(a, (1.0 - alpha) / a)


def _check_zeta(zeta: float) -> None:
    if not (math.isfinite(zeta) and zeta >= 0.0):
        raise ValueError(f"trigger zeta must be finite and >= 0, got {zeta}")


def _check_ascending_alpha(contractors: Sequence[ContractorSpec], dim: int) -> None:
    alphas = [c.alpha(dim) for c in contractors]
    if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError(f"contractors must be sorted by ascending alpha, got alphas {alphas}")


class ThreePCSpec:
    """A three-point compression rule: one map plus its certified (a, b) constants.

    Each subclass is the one place that knows its rule. It defines ``raw``,
    the map on vetted inputs, and ``constants``; the defaults below describe
    a fixed, deterministic, single-branch rule with no sparsifier.
    """

    randomized = False  # whether compressing draws from the rng streams
    branch_count = 1  # distinct branch indices the rule can report
    adaptive_level_count = 0  # selectable levels of an adaptive rule

    def raw(
        self, h: np.ndarray, y: np.ndarray, x: np.ndarray, rngs: Optional[Sequence[SeededRng]]
    ) -> CompressedRows:
        """The rule's map on (n, d) stacks of finite vectors, row by row.

        Row i of the result depends only on row i of h, y and x and on
        ``rngs[i]``; ``rngs`` holds one stream per row, or is None for a
        rule that does not draw.
        """
        raise NotImplementedError

    def constants(self, dim: int) -> ThreePCConstants:
        """Certified (a, b) at dimension ``dim``.

        Adaptive rules combine their branch constants (min a, max b). Raises
        ValueError when a sparsifier keeps more than ``dim`` coordinates or
        adaptive levels are not in ascending-alpha order.
        """
        raise NotImplementedError

    def strongest_contractor(self, dim: int) -> ContractorSpec:
        """The lowest-alpha sparsifier reachable inside the rule (identity if none)."""
        return ContractorSpec.identity()


@dataclass(frozen=True)
class EF21(ThreePCSpec):
    """Error-feedback shift rule: h + C(x - h); y is carried but unused."""

    contractor: ContractorSpec

    @property
    def randomized(self) -> bool:
        return self.contractor.randomized

    def raw(self, h, y, x, rngs):
        return _ef21_raw(self.contractor, h, x, rngs)

    def constants(self, dim):
        return ef21_constants(self.contractor.alpha(dim))

    def strongest_contractor(self, dim):
        return self.contractor


@dataclass(frozen=True)
class LAG(ThreePCSpec):
    """Lazy aggregation: resend x in full only when it drifted beyond the budget."""

    zeta: float
    branch_count = 2

    def __post_init__(self) -> None:
        _check_zeta(self.zeta)

    def raw(self, h, y, x, rngs):
        out = _skipping(h)
        sent = np.flatnonzero(~(row_sqnorms(x - h) <= self.zeta * row_sqnorms(x - y)))
        out._set(sent, 1, _ef21_raw(ContractorSpec.identity(), h[sent], x[sent], None))
        return out

    def constants(self, dim):
        return ThreePCConstants(1.0, self.zeta)


@dataclass(frozen=True)
class CLAG(ThreePCSpec):
    """Lazy trigger firing an error-feedback compressed update."""

    contractor: ContractorSpec
    zeta: float
    branch_count = 2

    def __post_init__(self) -> None:
        _check_zeta(self.zeta)

    @property
    def randomized(self) -> bool:
        return self.contractor.randomized

    def raw(self, h, y, x, rngs):
        out = _skipping(h)
        delta = x - h
        fired = np.flatnonzero(row_sqnorms(delta) > self.zeta * row_sqnorms(x - y))
        if fired.size:
            fired_rngs = None if rngs is None else [rngs[i] for i in fired]
            out._set(fired, 1, _ef21_raw(self.contractor, h[fired], x[fired], fired_rngs, delta[fired]))
        return out

    def constants(self, dim):
        base = ef21_constants(self.contractor.alpha(dim))
        return ThreePCConstants(base.a, max(self.zeta, base.b))

    def strongest_contractor(self, dim):
        return self.contractor


@dataclass(frozen=True)
class AdaCGD(ThreePCSpec):
    """Multi-level adaptive rule over error-feedback candidates.

    Contractors are ordered by ascending contraction parameter (strongest
    compression first). Branch 0 keeps h outright when h itself is within
    the lazy budget. Candidates j = 1..m are evaluated lazily in order; the
    first one with squared error within the budget wins (boundary
    inclusive), and the weakest level is the unconditional fallback. Level
    j is probed only on the rows no earlier level accepted. Randomized
    levels draw from per-branch derived streams, so the chosen branch's
    draw does not depend on how many candidates were probed.
    """

    contractors: tuple[ContractorSpec, ...]
    zeta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "contractors", tuple(self.contractors))
        if not self.contractors:
            raise ValueError("adaptive rule needs at least one contractor")
        repeated = [c for j, c in enumerate(self.contractors) if c in self.contractors[:j]]
        if repeated:
            raise ValueError(f"adaptive rule repeats level {repeated[0]}")
        _check_zeta(self.zeta)

    @property
    def randomized(self) -> bool:
        return any(c.randomized for c in self.contractors)

    @property
    def branch_count(self) -> int:
        return len(self.contractors) + 1

    @property
    def adaptive_level_count(self) -> int:
        return len(self.contractors)

    def raw(self, h, y, x, rngs):
        out = _skipping(h)
        budget = self.zeta * row_sqnorms(x - y)
        delta = x - h
        rows = np.flatnonzero(~(row_sqnorms(delta) <= budget))
        if not rows.size:
            return out
        # delta holds only the rows in play, in order; each top-k level
        # selects its own support from it.
        if rows.size < x.shape[0]:
            delta = delta[rows]
        last = len(self.contractors)
        for j, c in enumerate(self.contractors[:-1], start=1):
            fits = self._probe(out, j, c, h, x, delta, budget[rows], rows, rngs)
            if fits.any():
                rows = rows[~fits]
                if not rows.size:
                    return out
                delta = delta[~fits]
        # Every row left takes the last level, which needs no residual: delta
        # goes before the level's entries are made.
        c = self.contractors[-1]
        out.branches[rows] = last
        if c.kind == IDENTITY:
            out.vectors[rows] = x[rows]
            out.kinds[rows] = FULL
            return out
        kept = _contract_support(c, delta, _branch_streams(rngs, rows, last, c.randomized))
        del delta
        out._write_shift(rows, kept, *_shift_entries(h, x, kept, rows))
        return out

    @staticmethod
    def _probe(out, j, c, h, x, delta, budget, rows, rngs) -> np.ndarray:
        """Level j's test on stack rows ``rows``, whose x - h and budget are
        ``delta`` and ``budget``: the rows its candidate fits take it. Returns
        their mask.

        The candidate is the shift h + C(delta), computed only at the kept
        entries: its residual x - candidate is delta elsewhere, so it is made
        in delta's place and delta restored after. Building whole candidate
        vectors per level instead cost highdim_bidir 6% of its rounds/s
        (BENCH_13.json, adacgd_levels). A level is a call of its own so that
        its temporaries are freed before the next one selects.
        """
        if c.kind == IDENTITY:
            xr = x[rows]
            fits = row_sqnorms(xr - xr) <= budget  # the candidate is x itself
            taken = rows[fits]
            out.branches[taken] = j
            out.vectors[taken] = x[taken]
            out.kinds[taken] = FULL
            return fits
        kept = _contract_support(c, delta, _branch_streams(rngs, rows, j, c.randomized))
        positions, values, shifted = _shift_entries(h, x, kept, rows)
        entries = x.reshape(-1)[positions]
        entries -= shifted
        flat = delta.reshape(-1)
        own = _flat_positions(kept, x.shape[1])
        flat[own] = entries
        fits = row_sqnorms(delta) <= budget
        flat[own] = values
        taken = rows[fits]
        out.branches[taken] = j
        sending = np.repeat(fits, c.k)  # the entries are grouped by row
        out._write_shift(taken, kept[fits], positions[sending], values[sending], shifted[sending])
        return fits

    def constants(self, dim):
        # Branch constants combine (min a, max b); the skip branch gives (1, zeta).
        _check_ascending_alpha(self.contractors, dim)
        parts = [ThreePCConstants(1.0, self.zeta)]
        parts += [ef21_constants(c.alpha(dim)) for c in self.contractors]
        return combine_constants(parts)

    def strongest_contractor(self, dim):
        return min(self.contractors, key=lambda c: c.alpha(dim))


class Predicate(Protocol):
    """A branch guard of a dispatch chain; ``draws`` says whether ``evaluate`` reads its streams.

    ``evaluate`` maps (m, d) stacks to an (m,) bool array, whether the guard
    holds on each row; row i draws only from ``rngs[i]`` (None when the
    guard does not draw).
    """

    draws: bool

    def evaluate(
        self, h: np.ndarray, y: np.ndarray, x: np.ndarray, rngs: Optional[Sequence[SeededRng]]
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class Ada3PC(ThreePCSpec):
    """Predicate-dispatched chain of three-point compressors.

    Branch j fires when its predicate is the first to hold on (h, y, x);
    the final branch is the unconditional fallback, so a chain of m branches
    carries exactly m - 1 predicates. Predicate j is probed once, on the
    rows no earlier predicate claimed; each branch then maps the rows that
    chose it as one stack.
    """

    branches: tuple[ThreePCSpec, ...]
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "predicates", tuple(self.predicates))
        if not self.branches:
            raise ValueError("chain needs at least one branch")
        self._check_arity()
        for pred in self.predicates:
            if not (hasattr(pred, "evaluate") and hasattr(pred, "draws")):
                raise ValueError(f"predicate {pred!r} needs an evaluate(h, y, x, rngs) method and a draws flag")

    def _check_arity(self) -> None:
        if len(self.predicates) != len(self.branches) - 1:
            raise ValueError(
                f"chain with {len(self.branches)} branches needs exactly "
                f"{len(self.branches) - 1} predicates, got {len(self.predicates)}"
            )

    @property
    def randomized(self) -> bool:
        return any(b.randomized for b in self.branches) or any(p.draws for p in self.predicates)

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def adaptive_level_count(self) -> int:
        # m branches need ceil(log2 m) header bits to name one: what AdaCGD with m - 1 levels pays.
        return len(self.branches) - 1

    def raw(self, h, y, x, rngs):
        chosen = np.full(x.shape[0], len(self.branches) - 1)
        rows = np.arange(x.shape[0])  # the rows no predicate has claimed yet
        for j, pred in enumerate(self.predicates):
            if not rows.size:
                break
            holds = np.asarray(pred.evaluate(h[rows], y[rows], x[rows], _branch_streams(rngs, rows, j, pred.draws)))
            if holds.dtype != bool or holds.shape != rows.shape:
                raise ValueError(
                    f"predicate {pred!r} must return one bool per row (shape {rows.shape}), "
                    f"got {holds.dtype} of shape {holds.shape}"
                )
            chosen[rows[holds]] = j
            rows = rows[~holds]
        out = _skipping(h)
        for j, branch in enumerate(self.branches):
            rows = np.flatnonzero(chosen == j)
            if rows.size:
                branch_rngs = _branch_streams(rngs, rows, j, branch.randomized)
                out._set(rows, j, branch.raw(h[rows], y[rows], x[rows], branch_rngs))
        return out

    def constants(self, dim):
        # A chain altered after construction is caught here, before any compression.
        self._check_arity()
        return combine_constants(b.constants(dim) for b in self.branches)

    def strongest_contractor(self, dim):
        return min((b.strongest_contractor(dim) for b in self.branches), key=lambda c: c.alpha(dim))


@dataclass(frozen=True)
class IdentityMaster(EF21):
    """Pass-through compressor (the default server-side rule): the shift rule with the identity map."""

    contractor: ContractorSpec = field(default=ContractorSpec.identity(), init=False, repr=False)


@dataclass(frozen=True)
class SkipTrigger:
    """Holds on the rows whose carried state h is already within the lazy budget."""

    zeta: float
    draws = False

    def evaluate(self, h, y, x, rngs=None):
        return row_sqnorms(x - h) <= self.zeta * row_sqnorms(x - y)


@dataclass(frozen=True)
class CandidateErrorTrigger:
    """Holds on the rows whose shifted-compression candidate falls within the lazy budget."""

    zeta: float
    contractor: ContractorSpec

    @property
    def draws(self) -> bool:
        return self.contractor.randomized

    def evaluate(self, h, y, x, rngs=None):
        return row_sqnorms(x - _ef21_raw(self.contractor, h, x, rngs).vectors) <= self.zeta * row_sqnorms(x - y)


def _compress_raw(
    spec: ThreePCSpec, h: np.ndarray, y: np.ndarray, x: np.ndarray, rngs: Optional[Sequence[SeededRng]]
) -> CompressedRows:
    """Apply ``spec``'s map to vetted (n, d) stacks.

    The engine makes every compression through this one name, one call for
    all workers and one for the master per round, which is what
    ``perfbench/tracer.py`` wraps to time worker and master compression.
    """
    return spec.raw(h, y, x, rngs)


def compress(spec: ThreePCSpec, h, y, x, rng: Optional[SeededRng] = None) -> CompressedRows:
    """Compress x against (h, y) with ``spec``: the public compression entry point.

    Checks the vectors, and ``spec`` at their dimension, before applying the
    rule's map to the one-row stack, whose message it returns. Rules that
    draw need ``rng``.
    """
    h, y, x = as_vector(h), as_vector(y), as_vector(x)
    check_same_dim(h, x)
    check_same_dim(y, x)
    spec.constants(x.shape[0])
    return _compress_raw(spec, h[None], y[None], x[None], _one_stream(rng))


def adacgd_as_chain(contractors: Sequence[ContractorSpec], zeta: float) -> Ada3PC:
    """Explicit dispatch chain equivalent to the multi-level adaptive rule.

    The chain guards a lazy branch by the skip trigger and each shifted
    compression level by its candidate-error trigger; the weakest level is
    the fallback. Branch indices line up with the adaptive rule's.
    """
    contractors = tuple(contractors)
    if not contractors:
        raise ValueError("adaptive rule needs at least one contractor")
    branches: tuple[ThreePCSpec, ...] = (LAG(zeta),) + tuple(EF21(c) for c in contractors)
    predicates: tuple[Predicate, ...] = (SkipTrigger(zeta),) + tuple(
        CandidateErrorTrigger(zeta, c) for c in contractors[:-1]
    )
    return Ada3PC(branches, predicates)
