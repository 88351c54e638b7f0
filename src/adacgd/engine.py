"""Distributed compressed gradient-descent simulation with bit accounting.

Each round the server broadcasts its gradient estimate, every worker steps
the iterate, compresses its fresh gradient against (previous estimate,
previous gradient), and the server aggregates and optionally re-compresses
the mean for the downlink. The workers' estimates and gradients are held as
(n, d) arrays whose row i is worker i. The worker rule maps the whole (n, d)
stack in one call, row by row and each row independently of the others, and
aggregation adds the rows in ascending worker order, so results do not
depend on how the workers are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import SeededRng, ThreePCConstants, as_vector, mean_ascending, row_sqnorms, sqnorm
from .compressors import (
    EF21,
    CompressedRows,
    ContractorSpec,
    ThreePCSpec,
    _compress_raw,
)
from .problems import Problem, SmoothnessConstants, _round_oracle, smoothness
# Not called here: perfbench/tracer.py wraps these names in this module, as test_every_traced_name_resolves pins.
from .problems import client_gradient, loss  # noqa: F401

INIT_FULL = "full"
INIT_COMPRESSED = "compressed"

_WORKER_TAG = 1
_MASTER_TAG = 2
_INIT_TAG = 3

# Every value is billed as the float64 the simulation computes and ships.
VALUE_BITS = 64


class DivergenceError(RuntimeError):
    """Raised when a run produces non-finite values; carries the partial trace.

    ``reason`` names what went non-finite: "iterate", "objective",
    "gradient of client i", or "squared gradient norm" when every client
    gradient is finite but their mean's squared norm overflows.
    """

    def __init__(self, round_index: int, reason: str, records=None):
        super().__init__(f"non-finite {reason} at round {round_index}")
        self.round_index = round_index
        self.reason = reason
        self.records = records if records is not None else []


@dataclass(frozen=True)
class EngineState:
    """Everything the iteration carries across rounds, plus cumulative bits and the round's record inputs."""

    x: np.ndarray
    g_master: np.ndarray  # what workers will use to step
    g_tilde_master: np.ndarray  # server-side aggregate of worker estimates
    worker_estimates: np.ndarray  # (n, d); row i is worker i's estimate
    worker_prev_grads: np.ndarray  # (n, d); row i is worker i's gradient at the current iterate
    round: int
    uplink_bits: int
    downlink_bits: int
    f_value: float  # objective at x
    branch_histogram: tuple[int, ...]  # worker branches chosen this round; all zeros in round 0


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
STEPSIZE_RULES = (CONVEX_THM, NONCONVEX_UNI, PL, BIDIRECTIONAL)


def theoretical_stepsize(
    rule: str,
    sc: SmoothnessConstants,
    worker_c: ThreePCConstants,
    master_c: Optional[ThreePCConstants] = None,
) -> float:
    """The stepsize the theorem named ``rule`` (one of STEPSIZE_RULES) prescribes."""
    lm, lp = sc.l_minus, sc.l_plus
    wa, wb = worker_c.a, worker_c.b
    if rule == CONVEX_THM:
        return 1.0 / (lm + lp * math.sqrt(2.0 * wb / wa))
    if rule == NONCONVEX_UNI:
        return 1.0 / (lm + lp * math.sqrt(wb / wa))
    if rule == PL:
        if sc.mu is None:
            raise ValueError("PL stepsize rule needs a curvature parameter mu")
        return min(1.0 / (lm + lp * math.sqrt(2.0 * wb / wa)), wa / (2.0 * sc.mu))
    if rule == BIDIRECTIONAL:
        if master_c is None:
            raise ValueError("bidirectional stepsize rule needs master constants")
        ma, mb = master_c.a, master_c.b
        radicand = 6.0 * mb * (wb + 1.0) / ma + (2.0 * wb / ma) * (1.0 + 3.0 * mb * (2.0 - wa) / ma)
        return 1.0 / (lm + lp * math.sqrt(radicand))
    raise ValueError(f"unknown stepsize rule {rule!r}; choose from {', '.join(STEPSIZE_RULES)}")


def index_bits(dim: int) -> int:
    return math.ceil(math.log2(dim)) if dim > 1 else 0


def branch_header_bits(spec: ThreePCSpec) -> int:
    """Bits needed to tell the receiver which adaptive level follows."""
    m = spec.adaptive_level_count
    return math.ceil(math.log2(m + 1)) if m > 0 else 0


def message_bits(kinds, entries, dim: int, header_bits: int = 0):
    """Accounting cost of each transmission, each value billed at VALUE_BITS.

    ``kinds`` are payload kind codes (SKIP, SPARSE or FULL) and ``entries``
    the sparse entry counts, as numbers or arrays. Skip costs a single flag
    bit; a sparse payload costs value plus index bits per entry, plus the
    adaptive branch-id header; a full vector costs dim values with no index
    overhead. A sparse send is never charged more than a full vector (the
    sender falls back to dense framing when the support is nearly
    complete), which keeps the per-round uplink bounded by
    n * (64 * dim + header).
    """
    # Skip and full messages carry no sparse entries, so only sparse ones pay per entry.
    per_kind = np.array([1, header_bits, dim * VALUE_BITS])  # indexed by SKIP, SPARSE, FULL
    return per_kind[kinds] + np.minimum(entries * (VALUE_BITS + index_bits(dim)), dim * VALUE_BITS)


def _stack_bits(out: CompressedRows, dim: int, header_bits: int) -> int:
    """Total cost of every message of one stacked compression call."""
    return int(np.add.reduce(message_bits(out.kinds, out.entries, dim, header_bits)))


def _check_init_mode(init_mode: str) -> None:
    if init_mode not in (INIT_FULL, INIT_COMPRESSED):
        raise ValueError(f"unknown init mode {init_mode!r}; choose from {INIT_FULL}, {INIT_COMPRESSED}")


def _uplink(
    problem: Problem,
    x: np.ndarray,
    spec: ThreePCSpec,
    h: np.ndarray,
    y: np.ndarray,
    rngs: Optional[list[SeededRng]],
) -> tuple[float, np.ndarray, CompressedRows, np.ndarray, int]:
    """The uplink half of a round at a finite x: f, the gradients, the messages, their mean and their bits.

    The oracle takes x unchecked, and f comes from the same margins as the
    gradients. Callers ignore overflow and invalid operations under
    np.errstate: a non-finite value is a diverging run, which the round's
    record reports.
    """
    f, grads = _round_oracle(problem, x)
    out = _compress_raw(spec, h, y, grads, rngs)
    bits = _stack_bits(out, problem.dim, branch_header_bits(spec))
    return f, grads, out, mean_ascending(out.vectors), bits


def init(
    problem: Problem,
    worker_spec: ThreePCSpec,
    x0,
    init_mode: str = INIT_FULL,
    rng: Optional[SeededRng] = None,
) -> EngineState:
    """Set up round-0 state.

    Round 0 is an uplink like every later round's, from zero estimates:
    each worker's first message is the shift map toward its exact gradient,
    through the identity map in full mode and through the worker rule's
    strongest contractor in compressed mode. The server aggregate is
    broadcast in full either way, and no branch is chosen.
    """
    x0 = as_vector(x0)
    if x0.shape[0] != problem.dim:
        raise ValueError(f"dimension mismatch: {x0.shape[0]} vs {problem.dim}")
    _check_init_mode(init_mode)
    n, d = problem.n_clients, problem.dim
    contractor = worker_spec.strongest_contractor(d) if init_mode == INIT_COMPRESSED else ContractorSpec.identity()
    rngs = [rng.derive(_INIT_TAG, i) for i in range(n)] if rng is not None and contractor.randomized else None
    zeros = np.zeros((n, d))
    with np.errstate(over="ignore", invalid="ignore"):
        f, grads, out, g_tilde, bits = _uplink(problem, x0, EF21(contractor), zeros, zeros, rngs)
    return EngineState(
        x=x0.copy(),
        g_master=g_tilde.copy(),
        g_tilde_master=g_tilde,
        worker_estimates=out.vectors,
        worker_prev_grads=grads,
        round=0,
        uplink_bits=bits,
        downlink_bits=d * VALUE_BITS,
        f_value=f,
        branch_histogram=(0,) * worker_spec.branch_count,
    )


def _divergence_reason(f: float, grads: np.ndarray) -> str:
    """What made a record non-finite; called on the failure path only."""
    finite_rows = np.isfinite(grads).all(axis=1)
    if not finite_rows.all():
        return f"gradient of client {int(np.argmin(finite_rows))}"
    if not math.isfinite(f):
        return "objective"
    return "squared gradient norm"


def _make_record(
    state: EngineState,
    gamma: float,
    worker_c: ThreePCConstants,
    master_c: ThreePCConstants,
    f_star: float,
) -> IterationRecord:
    f = state.f_value
    grad = mean_ascending(state.worker_prev_grads)
    grad_sq = sqnorm(grad)
    if not (math.isfinite(f) and math.isfinite(grad_sq)):
        raise DivergenceError(state.round, _divergence_reason(f, state.worker_prev_grads))
    diff = state.worker_estimates - state.worker_prev_grads
    g_err = sum(row_sqnorms(diff).tolist()) / diff.shape[0]  # summed in worker order
    m_err = sqnorm(state.g_master - state.g_tilde_master)
    # psi bounds f below by 0: every objective here is >= 0 (verify's loss-lower-bound checks it).
    psi = (
        f
        + (gamma / master_c.a) * m_err
        + (gamma / worker_c.a) * (1.0 + 3.0 * master_c.b * (2.0 - worker_c.a) / master_c.a) * g_err
    )
    return IterationRecord(
        round=state.round,
        f_value=f,
        grad_norm_sq=grad_sq,
        phi=f - f_star + (gamma / worker_c.a) * g_err,
        psi=psi,
        g_error=g_err,
        master_error=m_err,
        uplink_bits=state.uplink_bits,
        downlink_bits=state.downlink_bits,
        branch_histogram=state.branch_histogram,
    )


def _check_stepsize(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"stepsize must be positive and finite, got {gamma}")


def step(
    state: EngineState,
    problem: Problem,
    worker_spec: ThreePCSpec,
    master_spec: ThreePCSpec,
    gamma: float,
    rng: SeededRng,
) -> EngineState:
    """Advance one round and return the new state."""
    _check_stepsize(gamma)
    t = state.round
    # Overflow here is a diverging run, reported via DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        x_new = state.x - gamma * state.g_master
        if not np.all(np.isfinite(x_new)):
            raise DivergenceError(t + 1, "iterate")

        rngs = [rng.derive(_WORKER_TAG, t, i) for i in range(problem.n_clients)] if worker_spec.randomized else None
        f, grads, out, g_tilde, bits = _uplink(
            problem, x_new, worker_spec, state.worker_estimates, state.worker_prev_grads, rngs
        )
        master_out = _compress_raw(
            master_spec,
            state.g_master[None],
            state.g_tilde_master[None],
            g_tilde[None],
            [rng.derive(_MASTER_TAG, t)] if master_spec.randomized else None,
        )
        return EngineState(
            x=x_new,
            g_master=master_out.vectors[0],
            g_tilde_master=g_tilde,
            worker_estimates=out.vectors,
            worker_prev_grads=grads,
            round=t + 1,
            uplink_bits=state.uplink_bits + bits,
            downlink_bits=state.downlink_bits + _stack_bits(master_out, problem.dim, branch_header_bits(master_spec)),
            f_value=f,
            branch_histogram=tuple(np.bincount(out.branches, minlength=worker_spec.branch_count).tolist()),
        )


@dataclass(frozen=True)
class StopRule:
    """Stop after max_rounds, on a squared-gradient tolerance, or a bit budget.

    The bit budget is checked after each round, against the cumulative
    uplink plus downlink bits. A run therefore goes over it by at most one
    round's traffic: n * (64 * d + header) uplink plus 64 * d downlink.
    Every value is billed as the float64 the simulation computes with.
    """

    max_rounds: int
    grad_tol_sq: Optional[float] = None
    bit_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.grad_tol_sq is not None and not self.grad_tol_sq >= 0:
            raise ValueError(f"grad_tol_sq must be a number >= 0, got {self.grad_tol_sq}")
        if self.bit_budget is not None and self.bit_budget < 1:
            raise ValueError(f"bit_budget must be >= 1, got {self.bit_budget}")

    def satisfied(self, record: IterationRecord) -> bool:
        if self.grad_tol_sq is not None and record.grad_norm_sq <= self.grad_tol_sq:
            return True
        if self.bit_budget is not None and record.uplink_bits + record.downlink_bits >= self.bit_budget:
            return True
        return False


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulated run needs; ``gamma`` is the stepsize itself."""

    problem: Problem
    worker_spec: ThreePCSpec
    master_spec: ThreePCSpec
    x0: np.ndarray
    gamma: float
    stop: StopRule
    seed: int = 0
    init_mode: str = INIT_FULL
    f_star: float = 0.0

    def __post_init__(self) -> None:
        _check_stepsize(self.gamma)


def resolve_stepsize(rule: str, problem: Problem, worker_spec: ThreePCSpec, master_spec: ThreePCSpec) -> float:
    """Theory stepsize ``rule`` for ``problem`` run with these worker and master rules."""
    sc = smoothness(problem)
    return theoretical_stepsize(rule, sc, worker_spec.constants(problem.dim), master_spec.constants(problem.dim))


def iterate(spec: RunSpec) -> Iterator[tuple[EngineState, IterationRecord]]:
    """Yield (state, record) for round 0 and then every later round, without end.

    The worker and master constants are certified once, before the first
    round; stopping is left to the caller. A non-finite value raises
    DivergenceError with the index of the round it appeared in and what
    went non-finite.
    """
    problem, worker_spec, master_spec, gamma = spec.problem, spec.worker_spec, spec.master_spec, spec.gamma
    wc = worker_spec.constants(problem.dim)
    mc = master_spec.constants(problem.dim)
    rng = SeededRng(spec.seed)
    state = init(problem, worker_spec, spec.x0, spec.init_mode, rng)
    while True:
        # Overflow in the record is a diverging run, which _make_record reports.
        with np.errstate(over="ignore", invalid="ignore"):
            record = _make_record(state, gamma, wc, mc, spec.f_star)
        yield state, record
        state = step(state, problem, worker_spec, master_spec, gamma, rng)


def run(spec: RunSpec) -> list[IterationRecord]:
    """Iterate until the stop rule fires; deterministic given the seed.

    On divergence the raised error carries the records collected so far.
    """
    records = []
    try:
        for _, record in iterate(spec):
            records.append(record)
            if record.round >= spec.stop.max_rounds or spec.stop.satisfied(record):
                return records
    except DivergenceError as err:
        raise DivergenceError(err.round_index, err.reason, records) from None
