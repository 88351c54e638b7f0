"""Batch property checks: sampling oracles and engine-run diagnostics.

This module is the one place that samples and judges properties; the
compression module holds only the sparsifiers and rules. Every check
returns a :class:`PropertyResult` whose margin is the tightest slack
observed (negative means a violation). The sampling oracles are
independent of the code paths they probe: compressor inequalities are
checked by direct sampling (``estimate_constants`` probes the three-point
inequality and returns the tightest empirical constants), gradients by
central differences. The run diagnostics (potential descent, error
recursions, rate bounds) read the engine's own records, the numbers a trace
reports; they test the theory's inequalities on those numbers, not the
engine's arithmetic.

The theorem suites (``convex_rate_suite`` and the three after it) run every
rule of ``THEOREM_RULES`` on their own problems: at full size in acceptance
criteria 6-9, at the ``trials`` scale in ``adacgd verify lyapunov|bounds``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import SeededRng, ThreePCConstants, row_sqnorms, sqnorm, stream_generators
from .compressors import (
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    SKIP,
    ThreePCSpec,
    CompressedRows,
    reconstruct,
    _compress_raw,
    _contract_rows,
    _payload_view,
)
from .datasets import SyntheticSpec, build_problem, make_synthetic
from .engine import EngineState, RunSpec, StopRule, iterate, theoretical_stepsize
from .experiments import solve_reference
from .problems import Problem, _round_oracle, check_gradient, full_gradient, loss, smoothness

_VERIFY_STREAM = 202
_CONTRACTION_REL_TOL = 1e-12  # relative allowance of the contraction check
_ESTIMATE_REL_TOL = 1e-9  # relative allowance on each sampled three-point inequality
_INNER_DRAWS = 256  # draws of a randomized map averaged per sample
_GRADIENT_TOL = 1e-5  # largest accepted finite-difference gradient error
_REL_SLACK = 1e-10  # relative slack of the per-round and rate-bound checks
_BURN_IN = 10  # rounds skipped before the linear rate is measured

TOP_LEVELS = (ContractorSpec.top_k(1), ContractorSpec.top_k(4), ContractorSpec.top_k(8))

# The deterministic rules the paper ranks. Their three-point inequality is
# sampled (acceptance criterion 2), and the theorem suites run each at its
# own theory stepsize, a bidirectional run with the same rule as master.
# Every check is pathwise, so rand-k rules, whose recursions hold only in
# expectation, are not among them.
THEOREM_RULES: tuple[tuple[str, ThreePCSpec], ...] = (
    ("ef21-top1", EF21(ContractorSpec.top_k(1))),
    ("lag", LAG(1.0)),
    ("clag-top1", CLAG(ContractorSpec.top_k(1), 1.0)),
    ("adacgd-topk", AdaCGD(TOP_LEVELS, 1.0)),
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    margin: float  # tightest slack observed; negative means violated
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: margin={self.margin:.3e}{extra}"


def _sample_triple(family: int, dim: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if family == 0:
        return g.standard_normal(dim), g.standard_normal(dim), g.standard_normal(dim)
    if family == 1:
        out = np.zeros((3, dim))
        support_size = max(1, dim // 4)
        for v in out:
            idx = g.choice(dim, size=support_size, replace=False)  # indices, then values: the draw order fixes the sample
            v[idx] = g.standard_normal(support_size)
        return tuple(out)
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


def _triple_stacks(rng: SeededRng, dim: int, trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, y, x) as (trials, dim) stacks; row t cycles the five families on stream t. Every sampled check draws here."""
    check_trials(trials)
    streams = (rng.derive(t) for t in range(trials))
    rows = [_sample_triple(t % 5, dim, g) for t, g in enumerate(stream_generators(streams))]
    return tuple(np.stack(column) for column in zip(*rows))


def _squared_errors(
    apply: Callable, inputs: tuple[np.ndarray, ...], target: np.ndarray, rng: SeededRng, randomized: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Squared error of ``apply(inputs, streams)`` against each row of ``target``, and its standard error.

    A deterministic map is one stacked call with no spread. A randomized map
    sees each sample repeated in ``_INNER_DRAWS`` rows, row s of sample t
    drawing from stream ``rng.derive(t, s)``, and its errors are averaged.
    """
    if not randomized:
        return row_sqnorms(apply(inputs, None) - target), np.zeros(target.shape[0])
    err, stderr = np.empty(target.shape[0]), np.empty(target.shape[0])
    for t, x in enumerate(target):
        draws = tuple(np.repeat(v[t][None], _INNER_DRAWS, axis=0) for v in inputs)
        errs = row_sqnorms(apply(draws, [rng.derive(t, s) for s in range(_INNER_DRAWS)]) - x)
        err[t], stderr[t] = errs.mean(), errs.std(ddof=1) / math.sqrt(_INNER_DRAWS)
    return err, stderr


@dataclass(frozen=True)
class EstimateReport:
    """Result of empirically probing the three-point inequality."""

    constants: ThreePCConstants
    passed: bool
    worst_slack: float
    trials: int


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
    hs, ys, xs = _triple_stacks(rng, dim, trials)
    own = spec.constants(dim)  # also checks the spec at dim when a certificate is given
    cert = certified if certified is not None else own
    err, stderr = _squared_errors(
        lambda stacks, streams: _compress_raw(spec, *stacks, streams).vectors, (hs, ys, xs), xs, rng, spec.randomized
    )
    hy, xy = row_sqnorms(hs - ys), row_sqnorms(xs - ys)
    rhs = (1.0 - cert.a) * hy + cert.b * xy
    bound = rhs + (_ESTIMATE_REL_TOL * np.maximum(1.0, rhs) + 3.0 * stderr)
    passed = bool(np.all(np.isfinite(err) & np.isfinite(rhs) & (err <= bound)))  # a NaN fails

    fit = np.isfinite(err)  # the constants are fitted on the finite errors
    pure = fit & (xy == 0.0) & (hy > 0.0)  # x = y: the error is all contraction
    a_hat = min(1.0, max(1e-12, 1.0 - float(np.max(err[pure] / hy[pure], initial=0.0))))
    drift = fit & (xy > 0.0)
    b_hat = float(np.max((err[drift] - (1.0 - a_hat) * hy[drift]) / xy[drift], initial=0.0))
    return EstimateReport(ThreePCConstants(a_hat, b_hat), passed, float(np.min(rhs - err)), trials)


def contraction_check(contractor: ContractorSpec, dim: int, n_vectors: int, seed: int) -> PropertyResult:
    """Squared compression error never exceeds (1 - alpha) of the input energy.

    Deterministic kinds are checked exactly per vector; rand-k is checked on
    the 256-draw empirical mean with a three-standard-error allowance.
    """
    if n_vectors < 1:
        raise ValueError(f"n_vectors must be >= 1, got {n_vectors}")
    rng = SeededRng(seed, _VERIFY_STREAM)
    alpha = contractor.alpha(dim)
    xs = np.stack([g.standard_normal(dim) for g in stream_generators(rng.derive(i) for i in range(n_vectors))])
    err, stderr = _squared_errors(
        lambda stacks, streams: _contract_rows(contractor, stacks[0], streams), (xs,), xs, rng, contractor.randomized
    )
    bound = (1.0 - alpha) * row_sqnorms(xs)
    allowance = 3.0 * stderr + _CONTRACTION_REL_TOL * np.maximum(1.0, bound)
    worst = float(np.min(bound + allowance - err))
    label = f"contraction[{contractor.kind},k={contractor.k},d={dim}]"
    return PropertyResult(label, worst >= 0.0, worst, f"{n_vectors} vectors")


def threepc_check(spec: ThreePCSpec, dim: int, trials: int, seed: int, name: str = "") -> PropertyResult:
    """Pointwise three-point inequality against certified constants."""
    report = estimate_constants(spec, dim, trials, SeededRng(seed, _VERIFY_STREAM))
    label = name or f"threepc[{type(spec).__name__},d={dim}]"
    cert = spec.constants(dim)
    detail = (
        f"certified a={cert.a:.4g} b={cert.b:.4g}, "
        f"empirical a={report.constants.a:.4g} b={report.constants.b:.4g}, {trials} triples"
    )
    return PropertyResult(label, report.passed, report.worst_slack, detail)


def _fields(rows: CompressedRows) -> tuple[np.ndarray, ...]:
    """A stacked result as dense arrays: vectors, branches, kinds, entries, and its payload's mask and values."""
    return (rows.vectors, rows.branches, rows.kinds, rows.entries, *_payload_view(rows))


def _rows_gap(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> float:
    """0.0 when two results' ``_fields`` agree exactly; else the vector gap, at least 1.0 if another field differs."""
    gap = float(np.max(np.abs(a[0] - b[0])))
    same = all(np.array_equal(u, v) for u, v in zip(a[1:], b[1:]))
    return gap if same else max(gap, 1.0)


def _sampled_rows(
    spec: ThreePCSpec, h: np.ndarray, y: np.ndarray, x: np.ndarray, streams: Optional[list[SeededRng]]
) -> CompressedRows:
    """``spec``'s map on stacked sampled triples, after checking ``spec`` at their dimension as ``compress`` does."""
    spec.constants(h.shape[1])
    return _compress_raw(spec, h, y, x, streams)


def collapse_checks(
    contractors: Sequence[ContractorSpec], zeta: float, dim: int, trials: int, seed: int
) -> list[PropertyResult]:
    """Reductions of the adaptive rule over ``contractors``, each against a rule written out here.

    At zeta = 0 it moves x as the shift rule at its weakest level does. At
    ``zeta``, each level's lazy rule (``LAG`` for the identity, ``CLAG``
    otherwise) keeps h as a skip row with no payload wherever
    |x - h|^2 <= zeta |x - y|^2, and sends that level's shift rule on
    branch 1 elsewhere.
    """
    rng = SeededRng(seed, _VERIFY_STREAM)
    h, y, x = _triple_stacks(rng, dim, trials)
    streams = [rng.derive(t, 1) for t in range(trials)]  # level j draws from derive(j) of row t's stream
    m, weakest = len(contractors), contractors[-1]
    a = _sampled_rows(AdaCGD(contractors, 0.0), h, y, x, streams)
    b = _sampled_rows(EF21(weakest), h, y, x, [s.derive(m) for s in streams])
    # Equality of the maps on the rows x moved: an earlier branch may
    # legitimately win when it reconstructs x exactly, so only the vectors
    # must agree; on fall-through the payload kinds must match too.
    moved = row_sqnorms(x - h) > 0.0
    worst = float(np.max(np.abs(a.vectors - b.vectors)[moved], initial=0.0))
    fell_through = moved & (a.branches == m)
    if not np.array_equal(a.kinds[fell_through], b.kinds[fell_through]):
        worst = max(worst, 1.0)
    name = f"collapse[zeta=0 -> weakest-level shift rule {weakest.kind},k={weakest.k}]"
    results = [PropertyResult(name, worst == 0.0, -worst, f"{trials} triples")]

    skip = row_sqnorms(x - h) <= zeta * row_sqnorms(x - y)
    level_streams = [s.derive(1) for s in streams]
    for c in contractors:
        lazy = LAG(zeta) if c == ContractorSpec.identity() else CLAG(c, zeta)
        vectors, _, kinds, entries, kept, sent = _fields(_sampled_rows(EF21(c), h, y, x, level_streams))
        expected = (
            np.where(skip[:, None], h, vectors),
            np.where(skip, 0, 1),
            np.where(skip, SKIP, kinds),
            np.where(skip, 0, entries),
            kept & ~skip[:, None],
            np.where(skip[:, None], 0.0, sent),
        )
        worst = _rows_gap(_fields(_sampled_rows(lazy, h, y, x, streams)), expected)
        name = f"collapse[{type(lazy).__name__}(zeta={zeta}) -> skip or shift rule {c.kind},k={c.k}]"
        results.append(PropertyResult(name, worst == 0.0, -worst, f"{trials} triples"))
    return results


def determinism_check(spec: ThreePCSpec, dim: int, trials: int, seed: int) -> PropertyResult:
    """Identical (spec, h, y, x, stream) always produce identical outcomes."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    h, y, x = _triple_stacks(rng, dim, trials)
    a = _sampled_rows(spec, h, y, x, [rng.derive(t, 9) for t in range(trials)])
    b = _sampled_rows(spec, h, y, x, [rng.derive(t, 9) for t in range(trials)])
    worst = _rows_gap(_fields(a), _fields(b))
    return PropertyResult(f"determinism[{type(spec).__name__}]", worst == 0.0, -worst)


def payload_roundtrip_check(spec: ThreePCSpec, dim: int, trials: int, seed: int) -> PropertyResult:
    """Reconstructing from (h, payloads) reproduces the compressed vectors exactly."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    h, y, x = _triple_stacks(rng, dim, trials)
    out = _sampled_rows(spec, h, y, x, [rng.derive(t) for t in range(trials)])
    worst = float(np.max(np.abs(reconstruct(h, out) - out.vectors)))
    return PropertyResult(f"payload-roundtrip[{type(spec).__name__}]", worst == 0.0, -worst)


def gradient_suite(problems: Sequence[tuple[str, Problem]], points: int, seed: int) -> list[PropertyResult]:
    """Finite-difference gradient checks plus smoothness and lower-bound probes."""
    results = []
    rng = SeededRng(seed, _VERIFY_STREAM)
    for name, p in problems:
        # crc32, unlike the per-process salted str hash, keys the same stream in every process.
        name_salt = zlib.crc32(name.encode()) & 0xFFFF
        worst = 0.0
        for g in stream_generators(rng.derive(name_salt, i) for i in range(points)):
            worst = max(worst, check_gradient(p, g.standard_normal(p.dim)))
        passed = worst <= _GRADIENT_TOL
        results.append(PropertyResult(f"gradient[{name}]", passed, _GRADIENT_TOL - worst, f"{points} points"))

        sc = smoothness(p)
        worst_lm = -math.inf
        worst_lp = -math.inf
        min_loss = math.inf
        for g in stream_generators(rng.derive(name_salt, 1000 + i) for i in range(points)):
            x, y = g.standard_normal(p.dim), g.standard_normal(p.dim)
            gap = math.sqrt(sqnorm(x - y))
            if gap == 0.0:
                continue
            lm_ratio = math.sqrt(sqnorm(full_gradient(p, x) - full_gradient(p, y))) / gap
            gx, gy = (_round_oracle(p, v[None])[1][0] for v in (x, y))
            lp_sq = sum(sqnorm(u - v) for u, v in zip(gx, gy)) / p.n_clients
            worst_lm = max(worst_lm, lm_ratio - sc.l_minus)
            worst_lp = max(worst_lp, lp_sq / (gap * gap) - sc.l_plus**2)
            min_loss = min(min_loss, loss(p, x))
        slack = 1e-9 * max(1.0, sc.l_plus**2)
        results.append(
            PropertyResult(f"smoothness[{name}]", worst_lm <= slack and worst_lp <= slack, -max(worst_lm, worst_lp))
        )
        results.append(PropertyResult(f"loss-lower-bound[{name}]", min_loss >= 0.0, min_loss))
    return results


@dataclass
class RunTrace:
    """Per-round columns of one run: the engine's record fields plus displacement."""

    states: list[EngineState]  # stacks of one run
    gamma: float
    worker_c: ThreePCConstants
    master_c: ThreePCConstants
    f: np.ndarray
    grad_sq: np.ndarray
    g_err: np.ndarray  # mean squared worker estimator error
    master_err: np.ndarray
    r: np.ndarray  # squared displacement, length rounds
    phi: np.ndarray
    psi: np.ndarray


def trace_run(
    problem: Problem,
    worker_spec: ThreePCSpec,
    master_spec: ThreePCSpec,
    gamma: float,
    rounds: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
    init_mode: str = "full",
    f_star: float = 0.0,
) -> RunTrace:
    """Run the engine keeping every state and record.

    The columns are the records' fields, the numbers a trace CSV carries;
    only the squared displacement is computed here, from the kept states.
    """
    x0 = x0 if x0 is not None else np.zeros(problem.dim)
    spec = RunSpec(problem, worker_spec, master_spec, x0, gamma, StopRule(rounds), seed,
                   init_mode=init_mode, f_star=f_star)
    states, records = map(list, zip(*itertools.islice(iterate(spec), rounds + 1)))

    def column(field: str) -> np.ndarray:
        return np.array([getattr(rec, field) for rec in records])

    return RunTrace(
        states,
        gamma,
        worker_spec.constants(problem.dim),
        master_spec.constants(problem.dim),
        f=column("f_value"),
        grad_sq=column("grad_norm_sq"),
        g_err=column("g_error"),
        master_err=column("master_error"),
        r=np.array([sqnorm(b.x[0] - a.x[0]) for a, b in zip(states, states[1:])]),
        phi=column("phi"),
        psi=column("psi"),
    )


def recursion_check(lhs: np.ndarray, rhs: np.ndarray, name: str) -> PropertyResult:
    """Per-round inequality lhs[t] <= rhs[t], allowing a relative slack of |rhs[t]|.

    A round holds only when both sides are finite, so a NaN or inf fails it.
    """
    held = np.isfinite(lhs) & np.isfinite(rhs) & (lhs <= rhs + _REL_SLACK * np.maximum(1.0, np.abs(rhs)))
    return PropertyResult(name, bool(np.all(held)), np.min(rhs - lhs, initial=math.inf), f"{len(lhs)} rounds")


def monotone_check(values: np.ndarray, name: str) -> PropertyResult:
    """Sequence never increases beyond the relative slack."""
    return dataclasses.replace(recursion_check(values[1:], values[:-1], name), detail=f"{len(values)} rounds")


def estimator_recursion_check(trace: RunTrace, l_plus: float, name: str = "estimator-error-recursion") -> PropertyResult:
    """G^{t+1} <= (1 - a) G^t + b L+^2 R^t on the recorded errors."""
    a, b = trace.worker_c.a, trace.worker_c.b
    rhs = (1.0 - a) * trace.g_err[:-1] + b * l_plus**2 * trace.r
    return recursion_check(trace.g_err[1:], rhs, name)


def master_recursion_check(trace: RunTrace, l_plus: float) -> PropertyResult:
    """Broadcast-vs-aggregate error recursion for bidirectional runs."""
    wa = trace.worker_c.a
    wb = trace.worker_c.b
    ma, mb = trace.master_c.a, trace.master_c.b
    rhs = (
        (1.0 - ma) * trace.master_err[:-1]
        + 3.0 * mb * (2.0 - wa) * trace.g_err[:-1]
        + 3.0 * mb * (wb + 1.0) * l_plus**2 * trace.r
    )
    return recursion_check(trace.master_err[1:], rhs, "master-error-recursion")


def _checkpoint_check(
    name: str, trace: RunTrace, checkpoints: Sequence[int], bound: Callable[[int], tuple[float, float]]
) -> PropertyResult:
    """``lhs <= rhs`` with relative slack, where ``(lhs, rhs) = bound(T)`` at each checkpoint T in 1..rounds.

    A checkpoint holds only when both sides are finite, so a NaN or inf fails it.
    """
    rounds = len(trace.f) - 1
    for t_cap in checkpoints:
        if not 1 <= t_cap <= rounds:
            raise ValueError(f"checkpoint T={t_cap} lies outside 1..{rounds}, the rounds of the trace")
    rows = [(t_cap, *bound(t_cap)) for t_cap in checkpoints]
    return PropertyResult(
        name,
        all(math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs * (1.0 + _REL_SLACK) for _, lhs, rhs in rows),
        min((rhs - lhs for _, lhs, rhs in rows), default=math.inf),
        "; ".join(f"T={t_cap}: {lhs:.3e} <= {rhs:.3e}" for t_cap, lhs, rhs in rows),
    )


def convex_bound_check(trace: RunTrace, x_star: np.ndarray, f_star: float, checkpoints: Sequence[int]) -> PropertyResult:
    """Averaged-objective suboptimality bound at the given checkpoints.

    Uses the measured running maximum distance to the reference minimizer in
    place of the bounded-iterates constant.
    """
    dist = np.array([math.sqrt(sqnorm(s.x[0] - x_star)) for s in trace.states])
    factor = max(1.0 / trace.gamma, 1.0 / trace.worker_c.a)

    def bound(t_cap: int) -> tuple[float, float]:
        omega_hat = float(np.max(dist[: t_cap + 1]))
        return trace.f[t_cap] - f_star, factor * 2.0 * (omega_hat**2 + trace.phi[0]) / t_cap

    return _checkpoint_check("convex-rate-bound", trace, checkpoints, bound)


def stationarity_bound_check(trace: RunTrace, checkpoints: Sequence[int]) -> PropertyResult:
    """Best squared gradient so far obeys 2 Psi^0 / (gamma T)."""
    return _checkpoint_check(
        "stationarity-bound",
        trace,
        checkpoints,
        lambda t_cap: (float(np.min(trace.grad_sq[:t_cap])), 2.0 * trace.psi[0] / (trace.gamma * t_cap)),
    )


def linear_rate_check(trace: RunTrace, mu: float, f_star: float) -> PropertyResult:
    """Observed per-round contraction of the optimality gap after burn-in.

    The observed rate is the geometric mean of the per-round factors over
    the window, compared against 1 - min(gamma * mu, a) / 2. A final gap of
    exactly 0 has converged; a gap that leaves 0 has not. A negative gap
    means ``f_star`` lies above the objective, and raises ValueError.
    """
    rounds = len(trace.f) - 1
    if rounds <= _BURN_IN:
        raise ValueError(f"the linear rate is measured after {_BURN_IN} burn-in rounds; the trace has only {rounds}")
    gaps = trace.f[_BURN_IN:] - f_star
    if np.any(gaps < 0.0):
        t = _BURN_IN + int(np.argmax(gaps < 0.0))
        raise ValueError(f"f_star={f_star!r} lies above the objective {float(trace.f[t])!r} of round {t}")
    threshold = 1.0 - min(trace.gamma * mu, trace.worker_c.a) / 2.0
    start, end = gaps[0], gaps[-1]
    if end == 0.0:
        return PropertyResult("linear-rate", True, threshold, "gap reached zero, converged")
    if start == 0.0:
        return PropertyResult("linear-rate", False, -math.inf, f"gap left zero after round {_BURN_IN}")
    rate = (end / start) ** (1.0 / (rounds - _BURN_IN))
    return PropertyResult(
        "linear-rate",
        rate <= threshold,
        threshold - rate,
        f"observed {rate:.6f} <= allowed {threshold:.6f} over rounds {_BURN_IN}..{rounds}",
    )


def gd_equivalence_check(
    problem: Problem,
    gamma: float,
    rounds: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
) -> PropertyResult:
    """Identity compressors with a zero trigger reproduce plain GD bitwise."""
    worker = CLAG(ContractorSpec.identity(), 0.0)
    x0 = x0 if x0 is not None else np.zeros(problem.dim)
    spec = RunSpec(problem, worker, IdentityMaster(), x0, gamma, StopRule(rounds), seed)
    x_ref = x0.copy()
    worst = 0.0
    for state, _ in itertools.islice(iterate(spec), 1, rounds + 1):
        acc = np.zeros(problem.dim)
        for g in _round_oracle(problem, x_ref[None])[1][0]:
            acc += g
        x_ref = x_ref - gamma * (acc / problem.n_clients)
        if not np.array_equal(state.x[0], x_ref):
            worst = max(worst, float(np.max(np.abs(state.x[0] - x_ref))))
    return PropertyResult("gd-bitwise-equivalence", worst == 0.0, -worst, f"{rounds} rounds")


def default_compressor_suite(seed: int, trials: int) -> list[PropertyResult]:
    dim = 16
    levels = (ContractorSpec.top_k(1), ContractorSpec.top_k(dim // 2), ContractorSpec.identity())
    rand_levels = (ContractorSpec.rand_k(2), ContractorSpec.rand_k(8))
    results: list[PropertyResult] = []
    for contractor in levels:
        results.append(contraction_check(contractor, dim, min(trials, 2000), seed))
    results.append(contraction_check(ContractorSpec.rand_k(2), dim, 64, seed))

    for name, spec in (*THEOREM_RULES, ("identity-master", IdentityMaster())):
        results.append(threepc_check(spec, dim, trials, seed, f"threepc[{name}]"))
        results.append(determinism_check(spec, dim, min(trials, 500), seed))
        results.append(payload_roundtrip_check(spec, dim, min(trials, 500), seed))
    results.append(threepc_check(EF21(ContractorSpec.rand_k(2)), dim, 50, seed, "threepc[ef21-rand2]"))
    # At zeta = 1 the h = y family sits exactly on the lazy trigger's boundary.
    results.extend(collapse_checks(levels, 1.0, dim, min(trials, 2000), seed))
    results.extend(collapse_checks(rand_levels, 1.0, dim, min(trials, 500), seed))
    return results


def default_gradient_suite(seed: int, trials: int) -> list[PropertyResult]:
    features, labels = make_synthetic(SyntheticSpec(n_examples=60, dim=8, seed=seed + 11))
    logistic = build_problem(features, labels, n_clients=3, lam=0.1, seed=seed + 11)
    convex = build_problem(features, labels, n_clients=3, lam=0.0, seed=seed + 11)
    quad = Problem.quadratic(np.linspace(1.0, 4.0, 8), n_clients=3)
    points = max(5, min(trials, 30))
    return gradient_suite(
        [("logistic-nonconvex", logistic), ("logistic-convex", convex), ("quadratic", quad)],
        points,
        seed,
    )


RuleResults = Iterator[tuple[str, list[PropertyResult]]]


def _per_rule(checks: Callable[[ThreePCSpec], list[PropertyResult]]) -> RuleResults:
    """``(label, checks(rule))`` for each of ``THEOREM_RULES``, each computed when it is reached."""
    return ((label, checks(rule)) for label, rule in THEOREM_RULES)


def _logistic(n_examples: int, dim: int, lam: float, seed: int) -> Problem:
    features, labels = make_synthetic(SyntheticSpec(n_examples, dim, seed=seed))
    return build_problem(features, labels, 4, lam, seed=seed)


def pl_quadratic() -> Problem:
    """The PL suite's quadratic: mu = 1 and L+ = 4, minimum 0 at the origin."""
    return Problem.quadratic(np.concatenate([[1.0], np.linspace(1.5, 4.0, 9)]), n_clients=4)


def convex_rate_suite(seed: int, rounds: int, checkpoints: Sequence[int]) -> RuleResults:
    """Phi descent and the convex rate bound, each rule at its convex stepsize on a lam = 0 logistic problem."""
    problem = _logistic(200, 20, 0.0, seed + 33)
    ref = solve_reference(problem, 1e-10)
    sc = smoothness(problem)

    def checks(worker: ThreePCSpec) -> list[PropertyResult]:
        gamma = theoretical_stepsize("convex", sc, worker.constants(problem.dim))
        trace = trace_run(problem, worker, IdentityMaster(), gamma, rounds, seed, f_star=ref.f_star)
        bound = convex_bound_check(trace, ref.x_star, ref.f_star, checkpoints)
        return [monotone_check(trace.phi, "phi-monotone"), bound]

    return _per_rule(checks)


def recursion_suite(seed: int, rounds: int) -> RuleResults:
    """The per-round error recursions of a unidirectional and a bidirectional run of each rule."""
    problem = _logistic(120, 12, 0.1, seed + 8)
    sc = smoothness(problem)

    def checks(worker: ThreePCSpec) -> list[PropertyResult]:
        wc = worker.constants(problem.dim)
        uni = trace_run(problem, worker, IdentityMaster(), theoretical_stepsize("nonconvex", sc, wc), rounds, seed + 1)
        bd = trace_run(problem, worker, worker, theoretical_stepsize("bidirectional", sc, wc, wc), rounds, seed + 1)
        return [
            estimator_recursion_check(uni, sc.l_plus),
            estimator_recursion_check(bd, sc.l_plus, "worker-error-recursion[bidirectional]"),
            master_recursion_check(bd, sc.l_plus),
        ]

    return _per_rule(checks)


def bidirectional_suite(seed: int, rounds: int, checkpoints: Sequence[int]) -> RuleResults:
    """Psi descent and the stationarity bound, each rule as worker and master at its bidirectional stepsize."""
    problem = _logistic(100, 10, 0.1, seed + 14)
    sc = smoothness(problem)

    def checks(worker: ThreePCSpec) -> list[PropertyResult]:
        wc = worker.constants(problem.dim)
        trace = trace_run(problem, worker, worker, theoretical_stepsize("bidirectional", sc, wc, wc), rounds, seed + 2)
        return [monotone_check(trace.psi, "psi-monotone"), stationarity_bound_check(trace, checkpoints)]

    return _per_rule(checks)


def pl_rate_suite(seed: int, rounds: int) -> RuleResults:
    """The linear rate of each rule at its PL stepsize on ``pl_quadratic``."""
    problem = pl_quadratic()
    sc = smoothness(problem)

    def checks(worker: ThreePCSpec) -> list[PropertyResult]:
        gamma = theoretical_stepsize("pl", sc, worker.constants(problem.dim))
        trace = trace_run(problem, worker, IdentityMaster(), gamma, rounds, seed, x0=np.ones(problem.dim))
        return [linear_rate_check(trace, sc.mu, f_star=0.0)]

    return _per_rule(checks)


def _labelled(per_rule: RuleResults) -> list[PropertyResult]:
    """Every rule's results, the rule's label appended to each name."""
    return [dataclasses.replace(r, name=f"{r.name}[{label}]") for label, results in per_rule for r in results]


def default_lyapunov_suite(seed: int, trials: int) -> list[PropertyResult]:
    return _labelled(recursion_suite(seed, max(50, min(trials, 300))))


def default_bounds_suite(seed: int, trials: int) -> list[PropertyResult]:
    rounds = max(200, min(trials, 500))
    checkpoints = [rounds // 4, rounds]
    quad = pl_quadratic()
    return [
        *_labelled(convex_rate_suite(seed, rounds, checkpoints)),
        *_labelled(bidirectional_suite(seed, rounds, checkpoints)),
        *_labelled(pl_rate_suite(seed, rounds)),
        gd_equivalence_check(quad, 1.0 / smoothness(quad).l_plus, 50, seed, x0=np.ones(quad.dim)),
    ]


SUITES = {
    "compressors": default_compressor_suite,
    "gradients": default_gradient_suite,
    "lyapunov": default_lyapunov_suite,
    "bounds": default_bounds_suite,
}


def check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def run_suite(name: str, seed: int = 0, trials: int = 2000) -> list[PropertyResult]:
    """Run one named verification suite; raises ValueError for an unknown name or trials < 1."""
    check_trials(trials)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed, trials)
