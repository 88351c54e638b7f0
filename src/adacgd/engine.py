"""Distributed compressed gradient-descent simulation with bit accounting.

Each round the server broadcasts its gradient estimate, every worker steps
the iterate, compresses its fresh gradient against (previous estimate,
previous gradient), and the server aggregates and optionally re-compresses
the mean for the downlink. The engine advances a stack of R runs that share
a problem, worker rule, master rule, x0, seed and init mode and differ in
their stepsizes, as a sweep's multipliers of one method do. The workers'
estimates and gradients are held as (R, n, d) arrays whose row [r, i] is
worker i of run r. The worker rule maps all R·n rows in one call, and the
master rule all R broadcasts in another, row by row and each row
independently of the others; aggregation adds the rows in ascending worker
order. So results do not depend on how the workers are scheduled, and every
run of a stack gives bitwise the results it gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import SeededRng, ThreePCConstants, as_vector, mean_ascending, row_sqnorms
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

# A stack of runs holds at most this many entries in each (R·n, d) worker
# array, or one run's if that is more: every array of a round is R times one
# run's. Stacking saves per-call overhead, which dominates small arrays: the
# protocol's 9 runs at n = 20, d = 50 (9000 entries) took 11.6 s against 14.2 s
# run one at a time (medians of 3 CLI runs, 2-vCPU VM). Large stacks pay in
# memory. A round's transient peak is AdaCGD's worker call. While it held 7.1
# times the stack's bytes, stacking highdim_bidir's two runs (n = 10,
# d = 2000) left more free heap on top than glibc's trim threshold (about
# 4.8 MB there), so every sweep gave its heap back to the system and the next
# one faulted the pages in again: 1414 minor faults per sweep against none
# run alone, and setup_s +26% (BENCH_22.json). At 3.4 times on its levels
# {1, 20, 200, 1000} (tests/test_compressors.py bounds it; levels (d/2, d)
# hold 5.2 times) the stack of two leaves 4.45-4.61 MB of free heap on top
# and no sweep faults (BENCH_26.json). The bound admits that stack; wider
# ones are unmeasured.
_STACK_MAX_ELEMENTS = 2 * 10 * 2000


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
    """A stack of R runs after one round: everything the iteration carries, plus cumulative bits and record inputs.

    Row r of every array is run r; all runs are at the same round.
    """

    x: np.ndarray  # (R, d)
    g_master: np.ndarray  # (R, d); what workers will use to step
    g_tilde_master: np.ndarray  # (R, d); server-side aggregate of worker estimates
    worker_estimates: np.ndarray  # (R, n, d); row [r, i] is worker i's estimate in run r
    worker_prev_grads: np.ndarray  # (R, n, d); row [r, i] is worker i's gradient at run r's current iterate
    round: int
    uplink_bits: np.ndarray  # (R,) int64
    downlink_bits: np.ndarray  # (R,) int64
    f_value: np.ndarray  # (R,); objective at x
    branch_histogram: np.ndarray  # (R, branches) int64; worker branches chosen this round, all zeros in round 0

    def take(self, runs) -> "EngineState":
        """The stack of the runs at rows ``runs``, in that order; a row may be taken more than once."""
        runs = np.asarray(runs, dtype=np.intp)
        return EngineState(
            self.x[runs], self.g_master[runs], self.g_tilde_master[runs], self.worker_estimates[runs],
            self.worker_prev_grads[runs], self.round, self.uplink_bits[runs], self.downlink_bits[runs],
            self.f_value[runs], self.branch_histogram[runs],
        )


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


def _stack_bits(out: CompressedRows, runs: int, dim: int, header_bits: int) -> np.ndarray:
    """Each run's total cost of the messages of one stacked compression call, whose rows are grouped by run."""
    bits = message_bits(out.kinds, out.entries, dim, header_bits)
    return np.add.reduce(bits.reshape(runs, -1), axis=1)


def _check_init_mode(init_mode: str) -> None:
    if init_mode not in (INIT_FULL, INIT_COMPRESSED):
        raise ValueError(f"unknown init mode {init_mode!r}; choose from {INIT_FULL}, {INIT_COMPRESSED}")


def _uplink(
    problem: Problem,
    xs: np.ndarray,
    spec: ThreePCSpec,
    h: np.ndarray,
    y: np.ndarray,
    rngs: Optional[list[SeededRng]],
) -> tuple[np.ndarray, np.ndarray, CompressedRows, np.ndarray, np.ndarray, np.ndarray]:
    """The uplink half of a round at the (R, d) points xs, given (R, n, d) stacks h and y.

    Returns each run's f, the (R, n, d) gradients, the messages of all R·n
    workers from one compression call (``rngs`` holds n streams, which every
    run reads alike), their (R, d) means and each run's bits. The oracle
    takes xs unchecked, and f comes from the same margins as the gradients.
    Callers ignore overflow and invalid operations under np.errstate: a
    non-finite value is a diverging run, which the round's record reports.
    """
    runs, d = xs.shape
    f, grads = _round_oracle(problem, xs)
    stack_rngs = None if rngs is None else rngs * runs
    out = _compress_raw(spec, h.reshape(-1, d), y.reshape(-1, d), grads.reshape(-1, d), stack_rngs)
    vectors = out.vectors.reshape(grads.shape)
    return f, grads, out, vectors, mean_ascending(vectors), _stack_bits(out, runs, d, branch_header_bits(spec))


def init(
    problem: Problem,
    worker_spec: ThreePCSpec,
    x0,
    init_mode: str = INIT_FULL,
    rng: Optional[SeededRng] = None,
) -> EngineState:
    """Set up round-0 state, as a stack of one run.

    Round 0 is an uplink like every later round's, from zero estimates:
    each worker's first message is the shift map toward its exact gradient,
    through the identity map in full mode and through the worker rule's
    strongest contractor in compressed mode. The server aggregate is
    broadcast in full either way, and no branch is chosen. Round 0 does not
    depend on the stepsize, so runs that differ only in it share this state
    (see ``EngineState.take``).
    """
    x0 = as_vector(x0)
    if x0.shape[0] != problem.dim:
        raise ValueError(f"dimension mismatch: {x0.shape[0]} vs {problem.dim}")
    _check_init_mode(init_mode)
    n, d = problem.n_clients, problem.dim
    contractor = worker_spec.strongest_contractor(d) if init_mode == INIT_COMPRESSED else ContractorSpec.identity()
    rngs = [rng.derive(_INIT_TAG, i) for i in range(n)] if rng is not None and contractor.randomized else None
    zeros = np.zeros((1, n, d))
    with np.errstate(over="ignore", invalid="ignore"):
        f, grads, _, estimates, g_tilde, bits = _uplink(problem, x0[None], EF21(contractor), zeros, zeros, rngs)
    return EngineState(
        x=x0[None].copy(),
        g_master=g_tilde.copy(),
        g_tilde_master=g_tilde,
        worker_estimates=estimates,
        worker_prev_grads=grads,
        round=0,
        uplink_bits=bits,
        downlink_bits=np.array([d * VALUE_BITS]),
        f_value=f,
        branch_histogram=np.zeros((1, worker_spec.branch_count), dtype=np.int64),
    )


def _divergence_reason(x: np.ndarray, f: float, grads: np.ndarray) -> str:
    """What made one run's record non-finite; called on the failure path only."""
    if not np.isfinite(x).all():
        return "iterate"
    finite_rows = np.isfinite(grads).all(axis=1)
    if not finite_rows.all():
        return f"gradient of client {int(np.argmin(finite_rows))}"
    if not math.isfinite(f):
        return "objective"
    return "squared gradient norm"


def _make_record(
    state: EngineState,
    gammas: Sequence[float],
    worker_c: ThreePCConstants,
    master_c: ThreePCConstants,
    f_stars: Sequence[float],
) -> list:
    """Each run's record of the round ``state`` ends, or the DivergenceError its non-finite values raise.

    Run r's record uses ``gammas[r]`` and ``f_stars[r]``; its norms and sums
    are bitwise what its own (n, d) arrays give. The error carries no records.
    """
    n = state.worker_prev_grads.shape[1]
    grad_sq = row_sqnorms(mean_ascending(state.worker_prev_grads)).tolist()
    errors = row_sqnorms(state.worker_estimates - state.worker_prev_grads).tolist()
    g_err = [sum(row) / n for row in errors]  # summed in worker order
    m_err = row_sqnorms(state.g_master - state.g_tilde_master).tolist()
    finite_x = np.isfinite(state.x).all(axis=1).tolist()
    # psi bounds f below by 0: every objective here is >= 0 (verify's loss-lower-bound checks it).
    g_factor = 1.0 + 3.0 * master_c.b * (2.0 - worker_c.a) / master_c.a
    records = []
    for r, (f, gamma, f_star, up, down, hist) in enumerate(zip(
        state.f_value.tolist(), gammas, f_stars, state.uplink_bits.tolist(), state.downlink_bits.tolist(),
        state.branch_histogram.tolist(),
    )):
        if not (finite_x[r] and math.isfinite(f) and math.isfinite(grad_sq[r])):
            reason = _divergence_reason(state.x[r], f, state.worker_prev_grads[r])
            records.append(DivergenceError(state.round, reason))
            continue
        records.append(IterationRecord(
            round=state.round,
            f_value=f,
            grad_norm_sq=grad_sq[r],
            phi=f - f_star + (gamma / worker_c.a) * g_err[r],
            psi=f + (gamma / master_c.a) * m_err[r] + (gamma / worker_c.a) * g_factor * g_err[r],
            g_error=g_err[r],
            master_error=m_err[r],
            uplink_bits=up,
            downlink_bits=down,
            branch_histogram=tuple(hist),
        ))
    return records


def _check_stepsize(gamma) -> None:
    """Reject a stepsize, or any of a stack's stepsizes, that is not finite and > 0."""
    if not all(0.0 < g < math.inf for g in np.ravel(gamma).tolist()):
        raise ValueError(f"stepsize must be positive and finite, got {gamma}")


def step(
    state: EngineState,
    problem: Problem,
    worker_spec: ThreePCSpec,
    master_spec: ThreePCSpec,
    gamma,
    rng: SeededRng,
) -> EngineState:
    """Advance every run of the stack one round, run r at stepsize ``gamma[r]``, and return the new state.

    ``gamma`` is one stepsize per run, or one number for all. Every run
    reads the same streams: the worker streams are derived once per round
    for all runs, so each run's rows keep the keys they have alone. A run
    whose values go non-finite is advanced like the others; its next
    record reports the divergence.
    """
    _check_stepsize(gamma)
    t = state.round
    runs, d = state.x.shape
    # Overflow here is a diverging run, reported by its record.
    with np.errstate(over="ignore", invalid="ignore"):
        x_new = state.x - np.reshape(gamma, (-1, 1)) * state.g_master
        rngs = [rng.derive(_WORKER_TAG, t, i) for i in range(problem.n_clients)] if worker_spec.randomized else None
        f, grads, out, estimates, g_tilde, bits = _uplink(
            problem, x_new, worker_spec, state.worker_estimates, state.worker_prev_grads, rngs
        )
        master_out = _compress_raw(
            master_spec,
            state.g_master,
            state.g_tilde_master,
            g_tilde,
            [rng.derive(_MASTER_TAG, t)] * runs if master_spec.randomized else None,
        )
        branches = worker_spec.branch_count
        # Run r's branches count at r·branches + branch, so one bincount gives every run's histogram.
        keyed = out.branches.reshape(runs, -1) + (np.arange(runs) * branches)[:, None]
        return EngineState(
            x=x_new,
            g_master=master_out.vectors,
            g_tilde_master=g_tilde,
            worker_estimates=estimates,
            worker_prev_grads=grads,
            round=t + 1,
            uplink_bits=state.uplink_bits + bits,
            downlink_bits=state.downlink_bits + _stack_bits(master_out, runs, d, branch_header_bits(master_spec)),
            f_value=f,
            branch_histogram=np.bincount(keyed.reshape(-1), minlength=runs * branches).reshape(runs, branches),
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
        SeededRng(self.seed)  # rejects a seed that is not an integer in 0..2**64 - 1


def resolve_stepsize(rule: str, problem: Problem, worker_spec: ThreePCSpec, master_spec: ThreePCSpec) -> float:
    """Theory stepsize ``rule`` for ``problem`` run with these worker and master rules."""
    sc = smoothness(problem)
    return theoretical_stepsize(rule, sc, worker_spec.constants(problem.dim), master_spec.constants(problem.dim))


def _rounds(specs: Sequence[RunSpec], stopping: bool) -> Iterator[tuple[list[int], EngineState, list]]:
    """Advance ``specs`` as one stack; yield, for round 0 and every later round,
    the index in ``specs`` of each run in the stack, the stack and each run's
    record (or the DivergenceError it raised), in stack order.

    The runs share everything but the stepsize, the stop rule and f_star
    (``run`` checks it). The worker and master constants are certified
    once, and round 0 is computed once for all runs. A run whose record is
    an error leaves the stack before the next round, and so, when
    ``stopping``, does a run whose record ends it by its stop rule; the
    others go on, until none is left.
    """
    first = specs[0]
    problem, worker_spec, master_spec = first.problem, first.worker_spec, first.master_spec
    wc = worker_spec.constants(problem.dim)
    mc = master_spec.constants(problem.dim)
    rng = SeededRng(first.seed)
    runs = list(range(len(specs)))
    gammas = [spec.gamma for spec in specs]
    f_stars = [spec.f_star for spec in specs]
    steps = np.array(gammas)
    state = init(problem, worker_spec, first.x0, first.init_mode, rng).take([0] * len(runs))
    while True:
        # Overflow in the record is a diverging run, which _make_record reports.
        with np.errstate(over="ignore", invalid="ignore"):
            records = _make_record(state, gammas, wc, mc, f_stars)
        yield runs, state, records
        keep = [
            row for row, (r, record) in enumerate(zip(runs, records))
            if not isinstance(record, DivergenceError)
            and not (stopping and (record.round >= specs[r].stop.max_rounds or specs[r].stop.satisfied(record)))
        ]
        if not keep:
            return
        if len(keep) < len(runs):
            state, runs = state.take(keep), [runs[row] for row in keep]
            gammas, f_stars, steps = [gammas[row] for row in keep], [f_stars[row] for row in keep], steps[keep]
        state = step(state, problem, worker_spec, master_spec, steps, rng)


def iterate(spec: RunSpec) -> Iterator[tuple[EngineState, IterationRecord]]:
    """Yield (state, record) for round 0 and then every later round, without end.

    The state is a stack of one run. Stopping is left to the caller. A
    non-finite value raises DivergenceError with the index of the round it
    appeared in and what went non-finite.
    """
    for _, state, (record,) in _rounds([spec], stopping=False):
        if isinstance(record, DivergenceError):
            raise record
        yield state, record


def run(specs: Union[RunSpec, Sequence[RunSpec]]):
    """Iterate until each run's stop rule fires; deterministic given the seed.

    Given one RunSpec, returns its records; on divergence the raised error
    carries the records collected so far. Given a sequence of runs that
    share everything but the stepsize, the stop rule and f_star, as a
    sweep's multipliers of one method do, advances them as stacks of
    consecutive runs, each stack's worker arrays within _STACK_MAX_ELEMENTS
    entries (two runs of 10 workers at d = 2000; one run if it alone holds
    more), and returns, for each run in order, its records or the DivergenceError
    that ended it, carrying its records. Each run's records are bitwise
    those it gives alone.
    """
    single = isinstance(specs, RunSpec)
    specs = [specs] if single else list(specs)
    if not specs:
        return []
    first = specs[0]
    for spec in specs[1:]:
        same_rules = spec.worker_spec == first.worker_spec and spec.master_spec == first.master_spec
        same_start = np.array_equal(spec.x0, first.x0) and (spec.seed, spec.init_mode) == (first.seed, first.init_mode)
        if not (spec.problem is first.problem and same_rules and same_start):
            raise ValueError("runs advanced as one stack must share the problem, rules, x0, seed and init mode")
    records: list[list[IterationRecord]] = [[] for _ in specs]
    outcomes: list = records.copy()
    size = max(1, _STACK_MAX_ELEMENTS // (first.problem.n_clients * first.problem.dim))
    for start in range(0, len(specs), size):
        for runs, _, made in _rounds(specs[start : start + size], stopping=True):
            for r, record in zip(runs, made):
                r += start
                if isinstance(record, DivergenceError):
                    outcomes[r] = DivergenceError(record.round_index, record.reason, records[r])
                else:
                    records[r].append(record)
    if single and isinstance(outcomes[0], DivergenceError):
        raise outcomes[0]
    return outcomes[0] if single else outcomes
