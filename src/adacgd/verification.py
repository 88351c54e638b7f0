"""Batch property checks: sampling oracles and engine-run diagnostics.

Every check returns a :class:`PropertyResult` whose margin is the tightest
slack observed (negative means a violation). The sampling oracles are
independent of the code paths they probe: compressor inequalities are
checked by direct sampling, gradients by central differences. The run
diagnostics (potential descent, error recursions, rate bounds) read the
engine's own records, the numbers a trace reports; they test the theory's
inequalities on those numbers, not the engine's arithmetic.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import SeededRng, ThreePCConstants, sqnorm
from .compressors import (
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    ThreePCSpec,
    adacgd_as_chain,
    apply_contractor,
    certified_constants,
    compress,
    estimate_constants,
    reconstruct,
    _sample_triple,
)
from .engine import (
    EngineState,
    StepsizeRule,
    init,
    initial_record,
    step,
    theoretical_stepsize,
)
from .problems import (
    Problem,
    check_gradient,
    client_gradient,
    full_gradient,
    loss,
    smoothness,
)

_VERIFY_STREAM = 202


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


def contraction_check(
    contractor: ContractorSpec,
    dim: int,
    n_vectors: int,
    seed: int,
    rel_tol: float = 1e-12,
    draws: int = 256,
) -> PropertyResult:
    """Squared compression error never exceeds (1 - alpha) of the input energy.

    Deterministic kinds are checked exactly per vector; rand-k is checked on
    the 256-draw empirical mean with a three-standard-error allowance.
    """
    rng = SeededRng(seed, _VERIFY_STREAM)
    alpha = contractor.alpha(dim)
    worst = math.inf
    for i in range(n_vectors):
        x = rng.derive(i).generator().standard_normal(dim)
        bound = (1.0 - alpha) * sqnorm(x)
        if contractor.randomized:
            errs = np.empty(draws)
            for s in range(draws):
                errs[s] = sqnorm(apply_contractor(contractor, x, rng.derive(i, s)) - x)
            err = float(errs.mean())
            stderr = float(errs.std(ddof=1) / math.sqrt(draws))
            allowance = 3.0 * stderr + rel_tol * max(1.0, bound)
        else:
            err = sqnorm(apply_contractor(contractor, x, rng.derive(i)) - x)
            allowance = rel_tol * max(1.0, bound)
        worst = min(worst, bound + allowance - err)
    label = f"contraction[{contractor.kind},k={contractor.k},d={dim}]"
    return PropertyResult(label, worst >= 0.0, worst, f"{n_vectors} vectors")


def threepc_check(spec: ThreePCSpec, dim: int, trials: int, seed: int, name: str = "") -> PropertyResult:
    """Pointwise three-point inequality against certified constants."""
    report = estimate_constants(spec, dim, trials, SeededRng(seed, _VERIFY_STREAM))
    label = name or f"threepc[{type(spec).__name__},d={dim}]"
    cert = certified_constants(spec, dim)
    detail = (
        f"certified a={cert.a:.4g} b={cert.b:.4g}, "
        f"empirical a={report.constants.a:.4g} b={report.constants.b:.4g}, {trials} triples"
    )
    return PropertyResult(label, report.passed, report.worst_slack, detail)


def _outcomes_equal(a, b) -> float:
    """0.0 when two outcomes agree exactly (vector, branch, payload); else the gap."""
    gap = float(np.max(np.abs(a.vector - b.vector))) if a.vector.shape == b.vector.shape else math.inf
    if a.branch_index != b.branch_index:
        gap = max(gap, 1.0)
    if a.payload.kind != b.payload.kind:
        gap = max(gap, 1.0)
    elif a.payload.kind == "sparse":
        if not np.array_equal(a.payload.indices, b.payload.indices):
            gap = max(gap, 1.0)
        elif not np.array_equal(a.payload.values, b.payload.values):
            gap = max(gap, 1.0)
    return gap


def chain_equivalence_check(
    contractors: Sequence[ContractorSpec],
    zeta: float,
    dim: int,
    trials: int,
    seed: int,
) -> PropertyResult:
    """The adaptive rule agrees exactly with its explicit dispatch chain."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    rule = AdaCGD(contractors, zeta)
    chain = adacgd_as_chain(contractors, zeta)
    worst = 0.0
    for t in range(trials):
        g = rng.derive(t).generator()
        h, y, x = _sample_triple(t % 5, dim, g)
        direct = compress(rule, h, y, x, rng.derive(t, 1))
        chained = compress(chain, h, y, x, rng.derive(t, 1))
        worst = max(worst, _outcomes_equal(direct, chained))
    return PropertyResult(
        f"chain-equivalence[m={len(contractors)},zeta={zeta}]",
        worst == 0.0,
        -worst,
        f"{trials} triples, vector- and branch-exact",
    )


def collapse_checks(dim: int, trials: int, seed: int) -> list[PropertyResult]:
    """Special-case reductions between the compression rules."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    contractors = (ContractorSpec.top_k(1), ContractorSpec.top_k(max(2, dim // 2)), ContractorSpec.identity())
    zeta = 1.5
    zeta_zero = AdaCGD(contractors, 0.0)
    weakest = EF21(contractors[-1])
    single = AdaCGD(contractors[:1], zeta)
    paired = CLAG(contractors[0], zeta)
    lazy = LAG(zeta)
    lazy_identity = CLAG(ContractorSpec.identity(), zeta)

    worst_ef21 = 0.0
    worst_clag = 0.0
    worst_lag = 0.0
    for t in range(trials):
        g = rng.derive(t).generator()
        h, y, x = _sample_triple(t % 5, dim, g)
        if sqnorm(x - h) > 0.0:
            # Equality of the maps: an earlier branch may legitimately win when
            # it reconstructs x exactly, so only the vectors must agree; on
            # fall-through the payloads must match too.
            m = len(contractors)
            a = compress(zeta_zero, h, y, x, rng.derive(t, 1))
            b = compress(weakest, h, y, x, rng.derive(t, 1).derive(m))
            gap = float(np.max(np.abs(a.vector - b.vector)))
            if a.branch_index == m and a.payload.kind != b.payload.kind:
                gap = max(gap, 1.0)
            worst_ef21 = max(worst_ef21, gap)
        a = compress(single, h, y, x, rng.derive(t, 2))
        b = compress(paired, h, y, x, rng.derive(t, 2).derive(1))
        worst_clag = max(worst_clag, _outcomes_equal(a, b))
        a = compress(lazy, h, y, x)
        b = compress(lazy_identity, h, y, x)
        worst_lag = max(worst_lag, _outcomes_equal(a, b))
    return [
        PropertyResult("collapse[zeta=0 -> weakest-level shift rule]", worst_ef21 == 0.0, -worst_ef21),
        PropertyResult("collapse[single level -> lazy compressed rule]", worst_clag == 0.0, -worst_clag),
        PropertyResult("collapse[lazy rule == compressed rule with identity]", worst_lag == 0.0, -worst_lag),
    ]


def monotone_trigger_check(
    contractors: Sequence[ContractorSpec],
    zeta: float,
    dim: int,
    trials: int,
    seed: int,
) -> PropertyResult:
    """The returned branch never comes after a passing candidate."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    rule = AdaCGD(contractors, zeta)
    worst = 0
    for t in range(trials):
        g = rng.derive(t).generator()
        h, y, x = _sample_triple(t % 5, dim, g)
        out = compress(rule, h, y, x, rng.derive(t, 1))
        budget = zeta * sqnorm(x - y)
        first_pass = None
        if sqnorm(x - h) <= budget:
            first_pass = 0
        else:
            for j, c in enumerate(contractors, start=1):
                v = compress(EF21(c), h, y, x, rng.derive(t, 1).derive(j)).vector
                if sqnorm(x - v) <= budget:
                    first_pass = j
                    break
        if first_pass is not None and out.branch_index > first_pass:
            worst = max(worst, out.branch_index - first_pass)
    return PropertyResult("monotone-trigger", worst == 0, -float(worst), f"{trials} triples")


def determinism_check(spec: ThreePCSpec, dim: int, trials: int, seed: int) -> PropertyResult:
    """Identical (spec, h, y, x, stream) always produce identical outcomes."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    worst = 0.0
    for t in range(trials):
        g = rng.derive(t).generator()
        h, y, x = _sample_triple(t % 5, dim, g)
        a = compress(spec, h, y, x, rng.derive(t, 9))
        b = compress(spec, h, y, x, rng.derive(t, 9))
        worst = max(worst, _outcomes_equal(a, b))
    return PropertyResult(f"determinism[{type(spec).__name__}]", worst == 0.0, -worst)


def payload_roundtrip_check(spec: ThreePCSpec, dim: int, trials: int, seed: int) -> PropertyResult:
    """Reconstructing from (h, payload) reproduces the compressed vector exactly."""
    rng = SeededRng(seed, _VERIFY_STREAM)
    worst = 0.0
    for t in range(trials):
        g = rng.derive(t).generator()
        h, y, x = _sample_triple(t % 5, dim, g)
        out = compress(spec, h, y, x, rng.derive(t))
        rebuilt = reconstruct(h, out.payload)
        worst = max(worst, float(np.max(np.abs(rebuilt - out.vector))))
    return PropertyResult(f"payload-roundtrip[{type(spec).__name__}]", worst == 0.0, -worst)


def gradient_suite(problems: Sequence[tuple[str, Problem]], points: int, seed: int, tol: float = 1e-5) -> list[PropertyResult]:
    """Finite-difference gradient checks plus smoothness and lower-bound probes."""
    results = []
    rng = SeededRng(seed, _VERIFY_STREAM)
    for name, p in problems:
        # crc32, unlike the per-process salted str hash, keys the same stream in every process.
        name_salt = zlib.crc32(name.encode()) & 0xFFFF
        worst = 0.0
        for i in range(points):
            x = rng.derive(name_salt, i).generator().standard_normal(p.dim)
            worst = max(worst, check_gradient(p, x))
        results.append(PropertyResult(f"gradient[{name}]", worst <= tol, tol - worst, f"{points} points"))

        sc = smoothness(p)
        worst_lm = -math.inf
        worst_lp = -math.inf
        min_loss = math.inf
        for i in range(points):
            g = rng.derive(name_salt, 1000 + i).generator()
            x, y = g.standard_normal(p.dim), g.standard_normal(p.dim)
            gap = math.sqrt(sqnorm(x - y))
            if gap == 0.0:
                continue
            lm_ratio = math.sqrt(sqnorm(full_gradient(p, x) - full_gradient(p, y))) / gap
            lp_sq = sum(
                sqnorm(client_gradient(p, i2, x) - client_gradient(p, i2, y)) for i2 in range(p.n_clients)
            ) / p.n_clients
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

    states: list[EngineState]
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
    rng = SeededRng(seed)
    x0 = x0 if x0 is not None else np.zeros(problem.dim)
    state = init(problem, worker_spec, x0, init_mode, rng)
    states = [state]
    records = [initial_record(state, problem, gamma, worker_spec, master_spec, f_star)]
    for _ in range(rounds):
        state, record = step(state, problem, worker_spec, master_spec, gamma, rng, f_star=f_star)
        states.append(state)
        records.append(record)

    def column(field: str) -> np.ndarray:
        return np.array([getattr(rec, field) for rec in records])

    return RunTrace(
        states,
        gamma,
        certified_constants(worker_spec, problem.dim),
        certified_constants(master_spec, problem.dim),
        f=column("f_value"),
        grad_sq=column("grad_norm_sq"),
        g_err=column("g_error"),
        master_err=column("master_error"),
        r=np.array([sqnorm(b.x - a.x) for a, b in zip(states, states[1:])]),
        phi=column("phi"),
        psi=column("psi"),
    )


def monotone_check(values: np.ndarray, name: str, rel_slack: float = 1e-10) -> PropertyResult:
    """Sequence never increases beyond the relative slack."""
    worst = math.inf
    passed = True
    for a, b in zip(values, values[1:]):
        allowance = rel_slack * max(1.0, abs(a))
        worst = min(worst, a - b)
        if b > a + allowance:
            passed = False
    return PropertyResult(name, passed, worst, f"{len(values)} rounds")


def recursion_check(
    lhs: np.ndarray,
    rhs: np.ndarray,
    name: str,
    rel_slack: float = 1e-10,
) -> PropertyResult:
    """Per-round inequality lhs[t+1-ish] <= rhs[t] with relative slack."""
    worst = math.inf
    passed = True
    for have, bound in zip(lhs, rhs):
        allowance = rel_slack * max(1.0, bound)
        worst = min(worst, bound - have)
        if have > bound + allowance:
            passed = False
    return PropertyResult(name, passed, worst, f"{len(lhs)} rounds")


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


def convex_bound_check(
    trace: RunTrace,
    x_star: np.ndarray,
    f_star: float,
    checkpoints: Sequence[int],
    rel_slack: float = 1e-10,
) -> PropertyResult:
    """Averaged-objective suboptimality bound at the given checkpoints.

    Uses the measured running maximum distance to the reference minimizer in
    place of the bounded-iterates constant.
    """
    dist = np.array([math.sqrt(sqnorm(s.x - x_star)) for s in trace.states])
    factor = max(1.0 / trace.gamma, 1.0 / trace.worker_c.a)
    worst = math.inf
    passed = True
    details = []
    for t_cap in checkpoints:
        omega_hat = float(np.max(dist[: t_cap + 1]))
        lhs = trace.f[t_cap] - f_star
        rhs = factor * 2.0 * (omega_hat**2 + trace.phi[0]) / t_cap
        worst = min(worst, rhs - lhs)
        if lhs > rhs * (1.0 + rel_slack):
            passed = False
        details.append(f"T={t_cap}: {lhs:.3e} <= {rhs:.3e}")
    return PropertyResult("convex-rate-bound", passed, worst, "; ".join(details))


def stationarity_bound_check(
    trace: RunTrace,
    checkpoints: Sequence[int],
    rel_slack: float = 1e-10,
) -> PropertyResult:
    """Best squared gradient so far obeys 2 Psi^0 / (gamma T)."""
    worst = math.inf
    passed = True
    details = []
    for t_cap in checkpoints:
        lhs = float(np.min(trace.grad_sq[:t_cap]))
        rhs = 2.0 * trace.psi[0] / (trace.gamma * t_cap)
        worst = min(worst, rhs - lhs)
        if lhs > rhs * (1.0 + rel_slack):
            passed = False
        details.append(f"T={t_cap}: {lhs:.3e} <= {rhs:.3e}")
    return PropertyResult("stationarity-bound", passed, worst, "; ".join(details))


def linear_rate_check(
    trace: RunTrace,
    mu: float,
    f_star: float,
    burn_in: int = 10,
    name: str = "linear-rate",
) -> PropertyResult:
    """Observed per-round contraction of the optimality gap after burn-in.

    The observed rate is the geometric mean of the per-round factors over
    the window, compared against 1 - min(gamma * mu, a) / 2.
    """
    threshold = 1.0 - min(trace.gamma * mu, trace.worker_c.a) / 2.0
    start = trace.f[burn_in] - f_star
    end = trace.f[-1] - f_star
    window = len(trace.f) - 1 - burn_in
    if start <= 0.0 or end <= 0.0:
        return PropertyResult(name, True, threshold, "gap underflowed to zero, converged")
    rate = (end / start) ** (1.0 / window)
    return PropertyResult(
        name,
        rate <= threshold,
        threshold - rate,
        f"observed {rate:.6f} <= allowed {threshold:.6f} over rounds {burn_in}..{len(trace.f) - 1}",
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
    rng = SeededRng(seed)
    x0 = x0 if x0 is not None else np.zeros(problem.dim)
    state = init(problem, worker, x0, "full", rng)

    x_ref = x0.copy()
    worst = 0.0
    for _ in range(rounds):
        grads = [client_gradient(problem, i, x_ref) for i in range(problem.n_clients)]
        acc = np.zeros(problem.dim)
        for g in grads:
            acc += g
        x_ref = x_ref - gamma * (acc / problem.n_clients)
        state, _ = step(state, problem, worker, IdentityMaster(), gamma, rng)
        if not np.array_equal(state.x, x_ref):
            worst = max(worst, float(np.max(np.abs(state.x - x_ref))))
    return PropertyResult("gd-bitwise-equivalence", worst == 0.0, -worst, f"{rounds} rounds")


def default_compressor_suite(seed: int, trials: int) -> list[PropertyResult]:
    dim = 16
    results: list[PropertyResult] = []
    for contractor in (ContractorSpec.top_k(1), ContractorSpec.top_k(dim // 2), ContractorSpec.identity()):
        results.append(contraction_check(contractor, dim, min(trials, 2000), seed))
    results.append(contraction_check(ContractorSpec.rand_k(2), dim, 64, seed))

    levels = (ContractorSpec.top_k(1), ContractorSpec.top_k(4), ContractorSpec.top_k(8))
    specs: list[tuple[str, ThreePCSpec]] = [
        ("ef21-top1", EF21(ContractorSpec.top_k(1))),
        ("lag", LAG(1.0)),
        ("clag-top1", CLAG(ContractorSpec.top_k(1), 1.0)),
        ("adacgd", AdaCGD(levels, 1.0)),
        ("identity-master", IdentityMaster()),
    ]
    for name, spec in specs:
        results.append(threepc_check(spec, dim, trials, seed, f"threepc[{name}]"))
        results.append(determinism_check(spec, dim, min(trials, 500), seed))
        results.append(payload_roundtrip_check(spec, dim, min(trials, 500), seed))
    results.append(threepc_check(EF21(ContractorSpec.rand_k(2)), dim, 50, seed, "threepc[ef21-rand2]"))
    results.append(chain_equivalence_check(levels, 1.0, dim, trials, seed))
    results.append(chain_equivalence_check((ContractorSpec.rand_k(2), ContractorSpec.rand_k(8)), 1.0, dim, min(trials, 500), seed))
    results.extend(collapse_checks(dim, min(trials, 2000), seed))
    results.append(monotone_trigger_check(levels, 1.0, dim, min(trials, 2000), seed))
    return results


def default_gradient_suite(seed: int, trials: int) -> list[PropertyResult]:
    from .datasets import SyntheticSpec, build_problem, make_synthetic

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


def default_lyapunov_suite(seed: int, trials: int) -> list[PropertyResult]:
    from .datasets import SyntheticSpec, build_problem, make_synthetic

    rounds = max(50, min(trials, 300))
    results = []

    quad = Problem.quadratic(np.linspace(1.0, 4.0, 10), n_clients=4)
    sc = smoothness(quad)
    worker = EF21(ContractorSpec.top_k(1))
    gamma = theoretical_stepsize(StepsizeRule.convex(), sc, certified_constants(worker, quad.dim))
    trace = trace_run(quad, worker, IdentityMaster(), gamma, rounds, seed, x0=np.ones(quad.dim))
    results.append(monotone_check(trace.phi, "phi-monotone[quadratic]"))
    results.append(estimator_recursion_check(trace, sc.l_plus))

    features, labels = make_synthetic(SyntheticSpec(n_examples=80, dim=10, seed=seed + 3))
    logistic = build_problem(features, labels, n_clients=4, lam=0.1, seed=seed + 3)
    lsc = smoothness(logistic)
    w = EF21(ContractorSpec.top_k(1))
    wc = certified_constants(w, logistic.dim)
    gamma_bd = theoretical_stepsize(StepsizeRule.bidirectional(), lsc, wc, wc)
    trace_bd = trace_run(logistic, w, w, gamma_bd, rounds, seed)
    results.append(monotone_check(trace_bd.psi, "psi-monotone[bidirectional]"))
    results.append(estimator_recursion_check(trace_bd, lsc.l_plus, "worker-error-recursion[bidirectional]"))
    results.append(master_recursion_check(trace_bd, lsc.l_plus))
    return results


def default_bounds_suite(seed: int, trials: int) -> list[PropertyResult]:
    from .datasets import SyntheticSpec, build_problem, make_synthetic
    from .experiments import solve_reference

    results = []
    features, labels = make_synthetic(SyntheticSpec(n_examples=100, dim=10, seed=seed + 5))
    convex = build_problem(features, labels, n_clients=4, lam=0.0, seed=seed + 5)
    sc = smoothness(convex)
    ref = solve_reference(convex, tolerance=1e-10)
    worker = EF21(ContractorSpec.top_k(1))
    wc = certified_constants(worker, convex.dim)
    gamma = theoretical_stepsize(StepsizeRule.convex(), sc, wc)
    rounds = max(200, min(trials, 500))
    trace = trace_run(convex, worker, IdentityMaster(), gamma, rounds, seed, f_star=ref.f_star)
    results.append(monotone_check(trace.phi, "phi-monotone[convex]"))
    results.append(convex_bound_check(trace, ref.x_star, ref.f_star, [rounds // 4, rounds]))

    logistic = build_problem(features, labels, n_clients=4, lam=0.1, seed=seed + 5)
    lsc = smoothness(logistic)
    gamma_bd = theoretical_stepsize(StepsizeRule.bidirectional(), lsc, wc, wc)
    trace_bd = trace_run(logistic, worker, worker, gamma_bd, rounds, seed)
    results.append(stationarity_bound_check(trace_bd, [rounds // 4, rounds]))

    quad = Problem.quadratic(np.linspace(1.0, 4.0, 10), n_clients=4)
    qsc = smoothness(quad)
    gamma_pl = theoretical_stepsize(StepsizeRule.pl(), qsc, wc)
    trace_pl = trace_run(quad, worker, IdentityMaster(), gamma_pl, rounds, seed, x0=np.ones(quad.dim))
    results.append(linear_rate_check(trace_pl, qsc.mu, 0.0))
    results.append(gd_equivalence_check(quad, 1.0 / qsc.l_plus, 50, seed, x0=np.ones(quad.dim)))
    return results


SUITES = {
    "compressors": default_compressor_suite,
    "gradients": default_gradient_suite,
    "lyapunov": default_lyapunov_suite,
    "bounds": default_bounds_suite,
}


def run_suite(name: str, seed: int = 0, trials: int = 2000) -> list[PropertyResult]:
    """Run one named verification suite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed, trials)
