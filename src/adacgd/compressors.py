"""Contractive sparsifiers and three-point compression rules.

A contractive sparsifier maps a vector to a cheaper-to-transmit vector whose
squared error is at most (1 - alpha) times the input's squared norm. A
three-point rule compresses a fresh vector x relative to the carried state h
and the previously seen vector y; the shipped rules are the error-feedback
shift (EF21), lazy aggregation (LAG), their combination (CLAG), a multi-level
adaptive rule (AdaCGD), and a generic predicate-dispatched chain (Ada3PC).
Each rule is one spec class holding its map and its certified inequality
constants; ``compress`` is the public entry point and ``estimate_constants``
the empirical verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Protocol, Sequence

import numpy as np

from .core import (
    SeededRng,
    ThreePCConstants,
    as_vector,
    check_same_dim,
    combine_constants,
    sqnorm,
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


def _magnitude_order(x: np.ndarray) -> np.ndarray:
    # Stable sort on -|x| breaks magnitude ties by lowest coordinate index.
    return np.argsort(-np.abs(x), kind="stable")


def _top_k_indices(x: np.ndarray, k: int, order: Optional[np.ndarray] = None) -> np.ndarray:
    # The top-k sets of one vector are nested under its single stable order,
    # so callers probing several k may pass that order in once.
    if order is None:
        order = _magnitude_order(x)
    return np.sort(order[:k])


def _contract_support(
    c: ContractorSpec, x: np.ndarray, rng: Optional[SeededRng], order: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Indices kept by the sparsifier, or None for the identity (full) map.

    ``order`` is x's magnitude ranking when the caller already has it.
    """
    d = x.shape[0]
    if c.kind == IDENTITY:
        return None
    if c.k > d:
        raise ValueError(f"k={c.k} exceeds dimension {d}")
    if c.kind == TOPK:
        return _top_k_indices(x, c.k, order)
    if rng is None:
        raise ValueError("rand-k contractor needs an rng stream")
    idx = rng.generator().choice(d, size=c.k, replace=False)
    idx.sort()
    return idx


def apply_contractor(c: ContractorSpec, x, rng: Optional[SeededRng] = None) -> np.ndarray:
    """Apply the sparsifier; kept coordinates pass through unscaled."""
    x = as_vector(x)
    support = _contract_support(c, x, rng)
    if support is None:
        return x.copy()
    out = np.zeros_like(x)
    out[support] = x[support]
    return out


SKIP = "skip"
SPARSE = "sparse"
FULL = "full"


@dataclass(frozen=True)
class Payload:
    """What crosses the wire: nothing, a sparse delta against h, or a full vector."""

    kind: str
    indices: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    @staticmethod
    def skip() -> "Payload":
        return Payload(SKIP)

    @staticmethod
    def sparse(indices: np.ndarray, values: np.ndarray) -> "Payload":
        return Payload(SPARSE, np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64))

    @staticmethod
    def full(values: np.ndarray) -> "Payload":
        return Payload(FULL, None, np.asarray(values, dtype=np.float64))

    @property
    def entry_count(self) -> int:
        if self.kind == SPARSE:
            return int(self.indices.shape[0])
        return 0


def reconstruct(h: np.ndarray, payload: Payload) -> np.ndarray:
    """Receiver-side reconstruction of the compressed vector from state h."""
    if payload.kind == SKIP:
        return h.copy()
    if payload.kind == SPARSE:
        out = h.copy()
        out[payload.indices] += payload.values
        return out
    return payload.values.copy()


@dataclass(frozen=True)
class CompressionOutcome:
    """Compressor output plus which branch produced it and its wire payload."""

    vector: np.ndarray
    branch_index: int
    payload: Payload


def _skip(h: np.ndarray) -> CompressionOutcome:
    return CompressionOutcome(h.copy(), 0, Payload.skip())


def _ef21_raw(
    contractor: ContractorSpec,
    h: np.ndarray,
    x: np.ndarray,
    rng: Optional[SeededRng],
    delta: Optional[np.ndarray] = None,
    order: Optional[np.ndarray] = None,
) -> CompressionOutcome:
    """The shift map h + C(x - h); callers that already hold ``delta = x - h``
    and its magnitude ranking ``order`` pass them in."""
    if contractor.kind == IDENTITY:
        # Mathematically h + (x - h) = x; return x itself to keep the
        # pass-through path bitwise exact.
        return CompressionOutcome(x.copy(), 0, Payload.full(x))
    if delta is None:
        delta = x - h
    support = _contract_support(contractor, delta, rng, order)
    values = delta[support]
    vector = h.copy()
    vector[support] += values
    return CompressionOutcome(vector, 0, Payload.sparse(support, values))


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

    randomized = False  # whether compressing draws from the rng stream
    branch_count = 1  # distinct branch indices the rule can report
    adaptive_level_count = 0  # selectable levels of an adaptive rule

    def raw(self, h: np.ndarray, y: np.ndarray, x: np.ndarray, rng: Optional[SeededRng]) -> CompressionOutcome:
        """The rule's map on finite vectors of one dimension."""
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

    def raw(self, h, y, x, rng):
        return _ef21_raw(self.contractor, h, x, rng)

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

    def raw(self, h, y, x, rng):
        if sqnorm(x - h) <= self.zeta * sqnorm(x - y):
            return _skip(h)
        return CompressionOutcome(x.copy(), 1, Payload.full(x))

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

    def raw(self, h, y, x, rng):
        if sqnorm(x - h) > self.zeta * sqnorm(x - y):
            out = _ef21_raw(self.contractor, h, x, rng)
            return CompressionOutcome(out.vector, 1, out.payload)
        return _skip(h)

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
    inclusive), and the weakest level is the unconditional fallback.
    Randomized levels draw from per-branch derived streams, so the chosen
    branch's draw does not depend on how many candidates were probed.
    """

    contractors: tuple[ContractorSpec, ...]
    zeta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "contractors", tuple(self.contractors))
        if not self.contractors:
            raise ValueError("adaptive rule needs at least one contractor")
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

    def raw(self, h, y, x, rng):
        budget = self.zeta * sqnorm(x - y)
        delta = x - h
        if sqnorm(delta) <= budget:
            return _skip(h)
        # One ranking serves every top-k level: their supports are prefixes of it.
        order = _magnitude_order(delta) if any(c.kind == TOPK for c in self.contractors) else None
        outcome = None
        for j, c in enumerate(self.contractors, start=1):
            branch_rng = rng.derive(j) if rng is not None and c.randomized else None
            candidate = _ef21_raw(c, h, x, branch_rng, delta, order)
            outcome = CompressionOutcome(candidate.vector, j, candidate.payload)
            if sqnorm(x - candidate.vector) <= budget:
                return outcome
        return outcome

    def constants(self, dim):
        # Branch constants combine (min a, max b); the skip branch gives (1, zeta).
        _check_ascending_alpha(self.contractors, dim)
        parts = [ThreePCConstants(1.0, self.zeta)]
        parts += [ef21_constants(c.alpha(dim)) for c in self.contractors]
        return combine_constants(parts)

    def strongest_contractor(self, dim):
        return min(self.contractors, key=lambda c: c.alpha(dim))


class Predicate(Protocol):
    """A branch guard of a dispatch chain; ``draws`` says whether ``evaluate`` reads its stream."""

    draws: bool

    def evaluate(self, h: np.ndarray, y: np.ndarray, x: np.ndarray, rng: Optional[SeededRng]) -> bool: ...


@dataclass(frozen=True)
class Ada3PC(ThreePCSpec):
    """Predicate-dispatched chain of three-point compressors.

    Branch j fires when its predicate is the first to hold on (h, y, x);
    the final branch is the unconditional fallback, so a chain of m branches
    carries exactly m - 1 predicates.
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
                raise ValueError(f"predicate {pred!r} needs an evaluate(h, y, x, rng) method and a draws flag")

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
        return len(self.branches)

    def raw(self, h, y, x, rng):
        chosen = len(self.branches) - 1
        for j, pred in enumerate(self.predicates):
            branch_rng = rng.derive(j) if rng is not None and pred.draws else None
            if pred.evaluate(h, y, x, branch_rng):
                chosen = j
                break
        branch = self.branches[chosen]
        branch_rng = rng.derive(chosen) if rng is not None and branch.randomized else None
        out = branch.raw(h, y, x, branch_rng)
        return CompressionOutcome(out.vector, chosen, out.payload)

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
    """True when the carried state h is already within the lazy budget."""

    zeta: float
    draws = False

    def evaluate(self, h: np.ndarray, y: np.ndarray, x: np.ndarray, rng: Optional[SeededRng] = None) -> bool:
        d = x - h
        e = x - y
        return float(d @ d) <= self.zeta * float(e @ e)


@dataclass(frozen=True)
class CandidateErrorTrigger:
    """True when the shifted-compression candidate falls within the lazy budget."""

    zeta: float
    contractor: ContractorSpec

    @property
    def draws(self) -> bool:
        return self.contractor.randomized

    def evaluate(self, h: np.ndarray, y: np.ndarray, x: np.ndarray, rng: Optional[SeededRng] = None) -> bool:
        v = _ef21_raw(self.contractor, h, x, rng).vector
        d = x - v
        e = x - y
        return float(d @ d) <= self.zeta * float(e @ e)


def _compress_raw(spec: ThreePCSpec, h: np.ndarray, y: np.ndarray, x: np.ndarray, rng: Optional[SeededRng]) -> CompressionOutcome:
    """Apply ``spec``'s map to vetted inputs.

    The engine makes every compression through this one name, which is what
    ``perfbench/tracer.py`` wraps to time worker and master compression.
    """
    return spec.raw(h, y, x, rng)


def compress(spec: ThreePCSpec, h, y, x, rng: Optional[SeededRng] = None) -> CompressionOutcome:
    """Compress x against (h, y) with ``spec``: the public compression entry point.

    Checks the vectors, and ``spec`` at their dimension, before applying the
    rule's map. Rules that draw need ``rng``.
    """
    h, y, x = as_vector(h), as_vector(y), as_vector(x)
    check_same_dim(h, x)
    check_same_dim(y, x)
    spec.constants(x.shape[0])
    return _compress_raw(spec, h, y, x, rng)


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


@dataclass(frozen=True)
class EstimateReport:
    """Result of empirically probing the three-point inequality."""

    constants: ThreePCConstants
    passed: bool
    worst_slack: float
    trials: int


_INNER_DRAWS = 256
_ESTIMATE_REL_TOL = 1e-9  # relative allowance on each sampled inequality


def _sample_triple(family: int, dim: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if family == 0:
        return g.standard_normal(dim), g.standard_normal(dim), g.standard_normal(dim)
    if family == 1:
        out = []
        support_size = max(1, dim // 4)
        for _ in range(3):
            v = np.zeros(dim)
            idx = g.choice(dim, size=support_size, replace=False)
            v[idx] = g.standard_normal(support_size)
            out.append(v)
        return out[0], out[1], out[2]
    if family == 2:
        h = g.standard_normal(dim)
        x = g.standard_normal(dim)
        return h, x.copy(), x  # collinear: y = x
    if family == 3:
        y = g.standard_normal(dim)
        h = y + 1e-8 * g.standard_normal(dim)
        return h, y, g.standard_normal(dim)
    y = g.standard_normal(dim)
    return y.copy(), y, g.standard_normal(dim)  # exact h = y


def _triples(rng: SeededRng, dim: int, trials: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(t, h, y, x) for each trial t, cycling the five families on stream t."""
    for t in range(trials):
        yield (t, *_sample_triple(t % 5, dim, rng.derive(t).generator()))


def estimate_constants(
    spec: ThreePCSpec,
    dim: int,
    trials: int,
    rng: SeededRng,
    certified: Optional[ThreePCConstants] = None,
) -> EstimateReport:
    """Probe the three-point inequality on sampled (h, y, x) triples.

    Triples cycle through unit-Gaussian, sparse, collinear (x = y),
    near-coincident (h ~ y), and exact h = y configurations. Randomized
    specs are averaged over 256 inner draws and allowed a three-standard-
    error margin on top of the relative tolerance; deterministic specs must
    satisfy the certified inequality on every sample.

    Returns the tightest empirical (a, b) consistent with the samples and a
    pass flag against the certified constants.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cert = certified if certified is not None else spec.constants(dim)
    randomized = spec.randomized

    worst_slack = math.inf
    passed = True
    max_pure_ratio = 0.0  # err / |h-y|^2 over samples with x = y
    residuals: list[tuple[float, float, float]] = []  # (err, |h-y|^2, |x-y|^2)

    for t, h, y, x in _triples(rng, dim, trials):
        hy = sqnorm(h - y)
        xy = sqnorm(x - y)
        if randomized:
            errs = np.empty(_INNER_DRAWS)
            for s in range(_INNER_DRAWS):
                out = compress(spec, h, y, x, rng.derive(t, s))
                errs[s] = sqnorm(out.vector - x)
            err = float(errs.mean())
            stderr = float(errs.std(ddof=1) / math.sqrt(_INNER_DRAWS)) if _INNER_DRAWS > 1 else 0.0
        else:
            out = compress(spec, h, y, x, rng.derive(t))
            err = sqnorm(out.vector - x)
            stderr = 0.0

        rhs = (1.0 - cert.a) * hy + cert.b * xy
        allowance = _ESTIMATE_REL_TOL * max(1.0, rhs) + 3.0 * stderr
        slack = rhs - err
        worst_slack = min(worst_slack, slack)
        if err > rhs + allowance:
            passed = False

        if xy == 0.0 and hy > 0.0:
            max_pure_ratio = max(max_pure_ratio, err / hy)
        residuals.append((err, hy, xy))

    a_hat = min(1.0, max(1e-12, 1.0 - max_pure_ratio))
    b_hat = 0.0
    for err, hy, xy in residuals:
        if xy > 0.0:
            b_hat = max(b_hat, (err - (1.0 - a_hat) * hy) / xy)
    b_hat = max(0.0, b_hat)

    return EstimateReport(ThreePCConstants(a_hat, b_hat), passed, worst_slack, trials)
