"""Distributed compressed gradient-descent simulation with bit accounting.

Each round the server broadcasts its gradient estimate, every worker steps
the iterate, compresses its fresh gradient against (previous estimate,
previous gradient), and the server aggregates and optionally re-compresses
the mean for the downlink. Workers are simulated sequentially but the
fixed ascending aggregation order makes results independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SeededRng, ThreePCConstants, as_vector, mean_ascending, sqnorm
from .compressors import (
    SKIP,
    SPARSE,
    CompressionOutcome,
    Payload,
    ThreePCSpec,
    certified_constants,
    _compress_raw,
    _contract_support,
)
from .problems import Problem, SmoothnessConstants, _round_oracle, client_gradient, loss, smoothness

INIT_FULL = "full"
INIT_COMPRESSED = "compressed"

_WORKER_TAG = 1
_MASTER_TAG = 2
_INIT_TAG = 3


class DivergenceError(RuntimeError):
    """Raised when a run produces non-finite values; carries the partial trace."""

    def __init__(self, round_index: int, records=None):
        super().__init__(f"non-finite values encountered at round {round_index}")
        self.round_index = round_index
        self.records = records if records is not None else []


@dataclass(frozen=True)
class EngineState:
    """Everything the iteration carries across rounds, plus cumulative bits."""

    x: np.ndarray
    g_master: np.ndarray  # what workers will use to step
    g_tilde_master: np.ndarray  # server-side aggregate of worker estimates
    worker_estimates: tuple[np.ndarray, ...]
    worker_prev_grads: tuple[np.ndarray, ...]  # gradients at the current iterate
    round: int
    uplink_bits: int
    downlink_bits: int


@dataclass(frozen=True)
class IterationRecord:
    round: int
    f_value: float
    grad_norm_sq: float
    phi: float
    psi: float
    g_error: float  # mean squared worker estimator error
    master_error: float  # squared gap between broadcast and aggregate
    uplink_bits: int  # cumulative
    downlink_bits: int  # cumulative
    branch_histogram: tuple[int, ...]


CONVEX_THM = "convex"
NONCONVEX_UNI = "nonconvex"
PL = "pl"
BIDIRECTIONAL = "bidirectional"
MANUAL = "manual"
MULTIPLIED = "multiplied"


@dataclass(frozen=True)
class StepsizeRule:
    """Theory-prescribed stepsize selector, or a manual/scaled override."""

    kind: str
    mu: Optional[float] = None
    gamma: Optional[float] = None
    base: Optional["StepsizeRule"] = None
    factor: Optional[float] = None

    @staticmethod
    def convex() -> "StepsizeRule":
        return StepsizeRule(CONVEX_THM)

    @staticmethod
    def nonconvex_uni() -> "StepsizeRule":
        return StepsizeRule(NONCONVEX_UNI)

    @staticmethod
    def pl(mu: Optional[float] = None) -> "StepsizeRule":
        return StepsizeRule(PL, mu=mu)

    @staticmethod
    def bidirectional() -> "StepsizeRule":
        return StepsizeRule(BIDIRECTIONAL)

    @staticmethod
    def manual(gamma: float) -> "StepsizeRule":
        if gamma <= 0:
            raise ValueError(f"stepsize must be positive, got {gamma}")
        return StepsizeRule(MANUAL, gamma=gamma)

    @staticmethod
    def multiplied(base: "StepsizeRule", factor: float) -> "StepsizeRule":
        if factor <= 0:
            raise ValueError(f"multiplier must be positive, got {factor}")
        return StepsizeRule(MULTIPLIED, base=base, factor=factor)


def theoretical_stepsize(
    rule: StepsizeRule,
    sc: SmoothnessConstants,
    worker_c: ThreePCConstants,
    master_c: Optional[ThreePCConstants] = None,
) -> float:
    """Evaluate the stepsize formula attached to ``rule``."""
    lm, lp = sc.l_minus, sc.l_plus
    wa, wb = worker_c.a, worker_c.b
    if rule.kind == CONVEX_THM:
        return 1.0 / (lm + lp * math.sqrt(2.0 * wb / wa))
    if rule.kind == NONCONVEX_UNI:
        return 1.0 / (lm + lp * math.sqrt(wb / wa))
    if rule.kind == PL:
        mu = rule.mu if rule.mu is not None else sc.mu
        if mu is None:
            raise ValueError("PL stepsize rule needs a curvature parameter mu")
        return min(1.0 / (lm + lp * math.sqrt(2.0 * wb / wa)), wa / (2.0 * mu))
    if rule.kind == BIDIRECTIONAL:
        if master_c is None:
            raise ValueError("bidirectional stepsize rule needs master constants")
        ma, mb = master_c.a, master_c.b
        radicand = 6.0 * mb * (wb + 1.0) / ma + (2.0 * wb / ma) * (1.0 + 3.0 * mb * (2.0 - wa) / ma)
        return 1.0 / (lm + lp * math.sqrt(radicand))
    if rule.kind == MANUAL:
        return rule.gamma
    if rule.kind == MULTIPLIED:
        return rule.factor * theoretical_stepsize(rule.base, sc, worker_c, master_c)
    raise ValueError(f"unknown stepsize rule {rule.kind!r}")


def index_bits(dim: int) -> int:
    return math.ceil(math.log2(dim)) if dim > 1 else 0


def branch_header_bits(spec: ThreePCSpec) -> int:
    """Bits needed to tell the receiver which adaptive level follows."""
    m = spec.adaptive_level_count
    return math.ceil(math.log2(m + 1)) if m > 0 else 0


def payload_bits(outcome: CompressionOutcome, dim: int, value_bits: int, header_bits: int = 0) -> int:
    """Accounting cost of one transmission.

    Skip costs a single flag bit; a sparse payload costs value plus index
    bits per entry, plus the adaptive branch-id header; a full vector costs
    dim values with no index overhead. A sparse send is never charged more
    than a full vector (the sender falls back to dense framing when the
    support is nearly complete), which keeps the per-round uplink bounded by
    n * (dim * value_bits + header).
    """
    if value_bits not in (32, 64):
        raise ValueError(f"value_bits must be 32 or 64, got {value_bits}")
    payload = outcome.payload
    if payload.kind == SKIP:
        return 1
    if payload.kind == SPARSE:
        s = payload.entry_count
        return min(s * (value_bits + index_bits(dim)), dim * value_bits) + header_bits
    return dim * value_bits


def init(
    problem: Problem,
    worker_spec: ThreePCSpec,
    x0,
    init_mode: str = INIT_FULL,
    rng: Optional[SeededRng] = None,
    value_bits: int = 64,
) -> EngineState:
    """Set up round-0 state.

    Full mode seeds every worker estimate with its exact gradient; compressed
    mode keeps only the entries of each worker's strongest contractor. Each
    worker's message is charged by :func:`payload_bits`, the rule of every
    later round. The server aggregate is broadcast in full either way.
    """
    x0 = as_vector(x0)
    if x0.shape[0] != problem.dim:
        raise ValueError(f"dimension mismatch: {x0.shape[0]} vs {problem.dim}")
    if init_mode not in (INIT_FULL, INIT_COMPRESSED):
        raise ValueError(f"unknown init mode {init_mode!r}")
    n, d = problem.n_clients, problem.dim
    grads = [client_gradient(problem, i, x0) for i in range(n)]
    contractor = worker_spec.strongest_contractor(d) if init_mode == INIT_COMPRESSED else None
    uplink = 0
    estimates = []
    for i, grad in enumerate(grads):
        support = None
        if contractor is not None:
            worker_rng = rng.derive(_INIT_TAG, i) if rng is not None and contractor.randomized else None
            support = _contract_support(contractor, grad, worker_rng)
        if support is None:
            est, payload = grad.copy(), Payload.full(grad)
        else:
            est = np.zeros(d)
            est[support] = grad[support]
            payload = Payload.sparse(support, grad[support])
        uplink += payload_bits(CompressionOutcome(est, 0, payload), d, value_bits)
        estimates.append(est)
    g_tilde = mean_ascending(estimates, d)
    downlink = d * value_bits
    return EngineState(
        x=x0.copy(),
        g_master=g_tilde.copy(),
        g_tilde_master=g_tilde,
        worker_estimates=tuple(estimates),
        worker_prev_grads=tuple(grads),
        round=0,
        uplink_bits=uplink,
        downlink_bits=downlink,
    )


def _potentials(
    f: float,
    g_err: float,
    m_err: float,
    gamma: float,
    worker_c: ThreePCConstants,
    master_c: ThreePCConstants,
    f_star: float,
) -> tuple[float, float]:
    phi = f - f_star + (gamma / worker_c.a) * g_err
    # psi bounds f below by 0: every objective here is >= 0 (verify's loss-lower-bound checks it).
    psi = (
        f
        + (gamma / master_c.a) * m_err
        + (gamma / worker_c.a) * (1.0 + 3.0 * master_c.b * (2.0 - worker_c.a) / master_c.a) * g_err
    )
    return phi, psi


def _mean_estimator_error(state: EngineState) -> float:
    n = len(state.worker_estimates)
    return sum(sqnorm(e - g) for e, g in zip(state.worker_estimates, state.worker_prev_grads)) / n


def _make_record(
    state: EngineState,
    problem: Problem,
    f: float,
    gamma: float,
    worker_c: ThreePCConstants,
    master_c: ThreePCConstants,
    f_star: float,
    branch_hist: tuple[int, ...],
) -> IterationRecord:
    grad = mean_ascending(state.worker_prev_grads, problem.dim)
    grad_sq = sqnorm(grad)
    if not (math.isfinite(f) and math.isfinite(grad_sq)):
        raise DivergenceError(state.round)
    g_err = _mean_estimator_error(state)
    m_err = sqnorm(state.g_master - state.g_tilde_master)
    phi, psi = _potentials(f, g_err, m_err, gamma, worker_c, master_c, f_star)
    return IterationRecord(
        round=state.round,
        f_value=f,
        grad_norm_sq=grad_sq,
        phi=phi,
        psi=psi,
        g_error=g_err,
        master_error=m_err,
        uplink_bits=state.uplink_bits,
        downlink_bits=state.downlink_bits,
        branch_histogram=branch_hist,
    )


def initial_record(
    state: EngineState,
    problem: Problem,
    gamma: float,
    worker_spec: ThreePCSpec,
    master_spec: ThreePCSpec,
    f_star: float = 0.0,
) -> IterationRecord:
    """Round-0 record (no compression branches chosen yet)."""
    wc = certified_constants(worker_spec, problem.dim)
    mc = certified_constants(master_spec, problem.dim)
    hist = (0,) * worker_spec.branch_count
    return _make_record(state, problem, loss(problem, state.x), gamma, wc, mc, f_star, hist)


def step(
    state: EngineState,
    problem: Problem,
    worker_spec: ThreePCSpec,
    master_spec: ThreePCSpec,
    gamma: float,
    rng: SeededRng,
    value_bits: int = 64,
    f_star: float = 0.0,
) -> tuple[EngineState, IterationRecord]:
    """Advance one round; returns the new state and its metrics record."""
    if gamma <= 0:
        raise ValueError(f"stepsize must be positive, got {gamma}")
    t = state.round
    d = problem.dim
    # Overflow here is a diverging run, reported via DivergenceError below.
    with np.errstate(over="ignore", invalid="ignore"):
        x_new = state.x - gamma * state.g_master
        if not np.all(np.isfinite(x_new)):
            raise DivergenceError(t + 1)

        # x_new is finite and of the problem's dimension, so the oracle skips the
        # per-call input checks; f comes from the same margins as the gradients.
        f_new, new_grads = _round_oracle(problem, x_new)
        worker_header = branch_header_bits(worker_spec)
        worker_draws = worker_spec.randomized
        hist = [0] * worker_spec.branch_count
        uplink = state.uplink_bits
        new_estimates = []
        # A non-finite gradient makes the record's mean gradient non-finite, so
        # _make_record below reports it as divergence at round t + 1.
        for i, grad_i in enumerate(new_grads):
            out = _compress_raw(
                worker_spec,
                state.worker_estimates[i],
                state.worker_prev_grads[i],
                grad_i,
                rng.derive(_WORKER_TAG, t, i) if worker_draws else None,
            )
            uplink += payload_bits(out, d, value_bits, worker_header)
            hist[out.branch_index] += 1
            new_estimates.append(out.vector)

        g_tilde_new = mean_ascending(new_estimates, d)
        master_out = _compress_raw(
            master_spec,
            state.g_master,
            state.g_tilde_master,
            g_tilde_new,
            rng.derive(_MASTER_TAG, t) if master_spec.randomized else None,
        )
        downlink = state.downlink_bits + payload_bits(master_out, d, value_bits, branch_header_bits(master_spec))

        new_state = EngineState(
            x=x_new,
            g_master=master_out.vector,
            g_tilde_master=g_tilde_new,
            worker_estimates=tuple(new_estimates),
            worker_prev_grads=tuple(new_grads),
            round=t + 1,
            uplink_bits=uplink,
            downlink_bits=downlink,
        )
        wc = certified_constants(worker_spec, d)
        mc = certified_constants(master_spec, d)
        try:
            record = _make_record(new_state, problem, f_new, gamma, wc, mc, f_star, tuple(hist))
        except DivergenceError:
            raise DivergenceError(t + 1) from None
    return new_state, record


@dataclass(frozen=True)
class StopRule:
    """Stop after max_rounds, on a squared-gradient tolerance, or a bit budget.

    The bit budget is checked after each round, against the cumulative
    uplink plus downlink bits. A run therefore goes over it by at most one
    round's traffic: n * (d * value_bits + header) uplink plus d * value_bits
    downlink.
    """

    max_rounds: int
    grad_tol_sq: Optional[float] = None
    bit_budget: Optional[int] = None

    def satisfied(self, record: IterationRecord) -> bool:
        if self.grad_tol_sq is not None and record.grad_norm_sq <= self.grad_tol_sq:
            return True
        if self.bit_budget is not None and record.uplink_bits + record.downlink_bits >= self.bit_budget:
            return True
        return False


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulated run needs."""

    problem: Problem
    worker_spec: ThreePCSpec
    master_spec: ThreePCSpec
    x0: np.ndarray
    stepsize: StepsizeRule
    stop: StopRule
    seed: int = 0
    value_bits: int = 64
    init_mode: str = INIT_FULL
    f_star: float = 0.0


def resolve_stepsize(spec: RunSpec, sc: Optional[SmoothnessConstants] = None) -> float:
    sc = sc if sc is not None else smoothness(spec.problem)
    wc = certified_constants(spec.worker_spec, spec.problem.dim)
    mc = certified_constants(spec.master_spec, spec.problem.dim)
    return theoretical_stepsize(spec.stepsize, sc, wc, mc)


def run(spec: RunSpec) -> list[IterationRecord]:
    """Iterate until the stop rule fires; deterministic given the seed.

    On divergence the raised error carries the records collected so far.
    """
    gamma = resolve_stepsize(spec)
    rng = SeededRng(spec.seed)
    state = init(spec.problem, spec.worker_spec, spec.x0, spec.init_mode, rng, spec.value_bits)
    records = [initial_record(state, spec.problem, gamma, spec.worker_spec, spec.master_spec, spec.f_star)]
    if spec.stop.satisfied(records[-1]):
        return records
    for _ in range(spec.stop.max_rounds):
        try:
            state, record = step(
                state,
                spec.problem,
                spec.worker_spec,
                spec.master_spec,
                gamma,
                rng,
                spec.value_bits,
                spec.f_star,
            )
        except DivergenceError as err:
            raise DivergenceError(err.round_index, records) from None
        records.append(record)
        if spec.stop.satisfied(record):
            break
    return records
