import dataclasses
import hashlib
from functools import cache, partial

import numpy as np
import pytest

from adacgd import verification
from adacgd.compressors import FULL, SKIP, SPARSE, AdaCGD, ContractorSpec, EF21, IdentityMaster, LAG, ThreePCSpec, _skipping
from adacgd.core import SeededRng, ThreePCConstants
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.engine import theoretical_stepsize
from adacgd.problems import Problem, smoothness
from adacgd.verification import (
    THEOREM_RULES,
    PropertyResult,
    contraction_check,
    convex_bound_check,
    estimate_constants,
    estimator_recursion_check,
    linear_rate_check,
    master_recursion_check,
    monotone_check,
    recursion_check,
    run_suite,
    stationarity_bound_check,
    trace_run,
)


def test_property_result_line_format():
    r = PropertyResult("example", True, 1.25e-3, "42 samples")
    assert r.line().startswith("[PASS] example")
    r = PropertyResult("example", False, -1.0)
    assert r.line().startswith("[FAIL]")


def test_monotone_check_tolerates_tiny_noise():
    values = np.array([1.0, 0.5, 0.5 + 1e-12, 0.25])
    assert monotone_check(values, "m").passed
    values = np.array([1.0, 0.5, 0.6])
    assert not monotone_check(values, "m").passed


def test_recursion_check_flags_violation():
    lhs = np.array([1.0, 2.0])
    rhs = np.array([1.5, 1.0])
    result = recursion_check(lhs, rhs, "r")
    assert not result.passed
    assert result.margin == pytest.approx(-1.0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


# sha256 of each suite's joined result lines at seed 0, 150 trials; the lines
# carry every margin to four significant digits, so a change to any checked
# number shows here. Same platform note as PROTOCOL_GOLDEN_SHA256.
SUITE_OUTPUT_SHA256 = {
    "compressors": "517d6079309411d6c7ddf98bad8ded400daeaf4e8428de090a2b5faab7735a6b",
    "gradients": "7d642089b854af61f2bb0af5c6a4f9a9f52940b23b7352b7d114f0d8006ff4f7",
    "lyapunov": "c9510173bc8e888c9cf029ce0ea81ad83a70ff737323ae794662634405e62cb6",
    "bounds": "df0d97d5ce7383a40ab4b37dd8fa80f70b77f30b694da5f3e9d8fe5d5e1d9206",
}


@cache
def _small_suite(suite):
    return tuple(run_suite(suite, seed=0, trials=150))


@pytest.mark.parametrize("suite", ["compressors", "gradients", "lyapunov", "bounds"])
def test_suites_pass_at_small_scale(suite):
    results = _small_suite(suite)
    assert results, "suite produced no checks"
    failing = [r.line() for r in results if not r.passed]
    assert not failing, failing
    output = "\n".join(r.line() for r in results)
    assert hashlib.sha256(output.encode()).hexdigest() == SUITE_OUTPUT_SHA256[suite], output


def test_compressor_suite_result_names_are_unique():
    # The collapse list runs twice, on top-k and on rand-k levels.
    names = [r.name for r in _small_suite("compressors")]
    assert len(names) == len(set(names)), names


@pytest.mark.parametrize("suite", ["lyapunov", "bounds"])
def test_theorem_suites_run_every_check_on_every_theorem_rule(suite):
    names = [r.name for r in _small_suite(suite)]
    checks = {
        label: sorted(n.removesuffix(f"[{label}]") for n in names if n.endswith(f"[{label}]"))
        for label, _ in THEOREM_RULES
    }
    first = checks[THEOREM_RULES[0][0]]
    assert first and all(rule_checks == first for rule_checks in checks.values()), checks


# repr of each sampled report, every float to full precision: the suite
# hashes above see margins only to four digits.
_TOP, _RAND, _IDENT = ContractorSpec.top_k, ContractorSpec.rand_k, ContractorSpec.identity
ESTIMATE_REPRS = {
    "ef21-top1": (
        lambda: estimate_constants(EF21(_TOP(1)), 8, 60, SeededRng(4)),
        "EstimateReport(constants=ThreePCConstants(a=0.27446796094488335, b=1.4253816838102342), "
        "passed=True, worst_slack=1.1756377948015166, trials=60)",
    ),
    "lag": (
        lambda: estimate_constants(LAG(1.5), 8, 60, SeededRng(4)),
        "EstimateReport(constants=ThreePCConstants(a=1.0, b=1.4576287026706158), "
        "passed=True, worst_slack=0.0, trials=60)",
    ),
    "adacgd-identity-level": (
        lambda: estimate_constants(AdaCGD((_TOP(1), _TOP(3), _IDENT()), 1.0), 8, 60, SeededRng(4)),
        "EstimateReport(constants=ThreePCConstants(a=1.0, b=1.0), "
        "passed=True, worst_slack=3.7535080799432294, trials=60)",
    ),
    "adacgd-randk": (
        lambda: estimate_constants(AdaCGD((_RAND(1), _TOP(4)), 1.0), 8, 12, SeededRng(4)),
        "EstimateReport(constants=ThreePCConstants(a=0.8943530799460946, b=1.0), "
        "passed=True, worst_slack=13.028969355085323, trials=12)",
    ),
    "certified-override": (
        lambda: estimate_constants(LAG(5.0), 8, 60, SeededRng(4), certified=ThreePCConstants(1.0, 0.01)),
        "EstimateReport(constants=ThreePCConstants(a=1.0, b=1.4576287026706158), "
        "passed=False, worst_slack=-28.284764589684844, trials=60)",
    ),
}


@pytest.mark.parametrize("name", list(ESTIMATE_REPRS))
def test_estimate_constants_reports_pinned_to_full_precision(name):
    estimate, expected = ESTIMATE_REPRS[name]
    assert repr(estimate()) == expected


CONTRACTION_CASES = [(_TOP(3), 40, 1.0185200476987217), (_RAND(2), 6, 0.22062059977625914), (_IDENT(), 40, 1e-12)]


@pytest.mark.parametrize("contractor, n_vectors, margin", CONTRACTION_CASES)
def test_contraction_margins_pinned_to_full_precision(contractor, n_vectors, margin):
    result = contraction_check(contractor, 8, n_vectors, seed=5)
    assert result.passed
    assert repr(result.margin) == repr(margin)


def _sampled_checks():
    for name, (estimate, _) in ESTIMATE_REPRS.items():
        yield name, estimate
    for contractor, n_vectors, _ in CONTRACTION_CASES:
        yield f"contraction-{contractor.kind}", partial(contraction_check, contractor, 8, n_vectors, seed=5)


# sha256 of the bytes of the (err, stderr) pair that each sampled check above
# judges. The pinned reports and margins are maxima and minima over the
# samples; these digests see every sample.
SQUARED_ERRORS_SHA256 = {
    "ef21-top1": "95e6d828c2be1bc5e392e2cdd9e3b412e0bb83296460f382d75873b9ba8fda8a",
    "lag": "7a818b8b5b1e0d244afd311bf65077c5d264d691e204b6571eb0b7081e2e0a59",
    "adacgd-identity-level": "249dfb0126a43a04d24aede9023dbce78ec063a65190bebc510d7ac8e7cdc155",
    "adacgd-randk": "8fa2838acd0a1af7aa5a4055ffe57d2a36c674553f2581ffec0183952589784e",
    "certified-override": "7a818b8b5b1e0d244afd311bf65077c5d264d691e204b6571eb0b7081e2e0a59",
    "contraction-topk": "86990dda875dbedd3a370e6960c6c497d704616b0d0dbdcef979009ab7b120f0",
    "contraction-randk": "32892c94b7e16dd84cfb48b6566a8bc2ef514804eebb90b72b3231adf7600e54",
    "contraction-identity": "9e132485d5107211de325a45e7917cbe3e4b5b9cde3e4ee91d7d2102317759ee",
}


@pytest.mark.parametrize("name", list(SQUARED_ERRORS_SHA256))
def test_sampled_squared_errors_pinned(name, monkeypatch):
    digests = []
    real = verification._squared_errors

    def recording(*args):
        err, stderr = real(*args)
        digests.append(hashlib.sha256(err.tobytes() + stderr.tobytes()).hexdigest())
        return err, stderr

    monkeypatch.setattr(verification, "_squared_errors", recording)
    dict(_sampled_checks())[name]()
    assert digests == [SQUARED_ERRORS_SHA256[name]]


def _short_trace(rounds, master=IdentityMaster()):
    quad = Problem.quadratic(np.linspace(1.0, 4.0, 6), n_clients=2)
    return trace_run(quad, EF21(_TOP(1)), master, 0.05, rounds, seed=0, x0=np.ones(quad.dim))


def test_bound_checks_reject_checkpoints_outside_the_trace():
    trace = _short_trace(20)
    x_star = np.zeros(trace.states[0].x.shape[1])
    with pytest.raises(ValueError, match="T=0 "):
        convex_bound_check(trace, x_star, 0.0, [0])
    with pytest.raises(ValueError, match="T=21 "):
        convex_bound_check(trace, x_star, 0.0, [10, 21])
    with pytest.raises(ValueError, match="T=25 "):
        stationarity_bound_check(trace, [25])
    with pytest.raises(ValueError, match="T=0 "):
        stationarity_bound_check(trace, [0])
    assert stationarity_bound_check(trace, [1, 20]).passed
    assert convex_bound_check(trace, x_star, 0.0, [1, 20]).passed


def test_linear_rate_check_needs_a_round_past_the_burn_in():
    for rounds in (5, 10):
        with pytest.raises(ValueError, match=f"only {rounds}"):
            linear_rate_check(_short_trace(rounds), 1.0, 0.0)
    assert linear_rate_check(_short_trace(11), 1.0, 0.0).detail.endswith("over rounds 10..11")


# Hand-built traces that sit 1% inside or 1% outside a theorem's right side,
# far beyond the checks' 1e-10 relative slack. Each right side is written
# out again here from the theorem, not taken from the check under test.
ON_THE_BOUND = pytest.mark.parametrize("scale, passes", [(0.99, True), (1.01, False)])


@ON_THE_BOUND
def test_convex_bound_check_holds_the_theorem_bound(scale, passes):
    trace = _short_trace(20)
    x_star, f_star = np.full(trace.states[0].x.shape[1], 0.25), 0.5

    def rhs(t_cap):
        # f(x^T) - f* <= max(1/gamma, 1/a) * 2 (Omega_T^2 + Phi^0) / T, Omega_T the farthest x^t (t <= T) from x*
        omega_sq = max(float(np.sum((s.x[0] - x_star) ** 2)) for s in trace.states[: t_cap + 1])
        return max(1.0 / trace.gamma, 1.0 / trace.worker_c.a) * 2.0 * (omega_sq + trace.phi[0]) / t_cap

    bounds = {t_cap: rhs(t_cap) for t_cap in (5, 20)}
    f = trace.f.copy()
    for t_cap, bound in bounds.items():
        f[t_cap] = f_star + scale * bound
    result = convex_bound_check(dataclasses.replace(trace, f=f), x_star, f_star, list(bounds))
    assert result.passed == passes, result.line()
    assert result.margin == pytest.approx(min((1.0 - scale) * b for b in bounds.values()))


@ON_THE_BOUND
def test_stationarity_bound_check_holds_the_theorem_bound(scale, passes):
    trace = _short_trace(20)
    # min_{t < T} ||grad f(x^t)||^2 <= 2 Psi^0 / (gamma T)
    bounds = {t_cap: 2.0 * trace.psi[0] / (trace.gamma * t_cap) for t_cap in (5, 20)}
    grad_sq = np.full_like(trace.grad_sq, scale * bounds[20])
    grad_sq[:5] = scale * bounds[5]
    result = stationarity_bound_check(dataclasses.replace(trace, grad_sq=grad_sq), list(bounds))
    assert result.passed == passes, result.line()
    assert result.margin == pytest.approx(min((1.0 - scale) * b for b in bounds.values()))


@ON_THE_BOUND
def test_linear_rate_check_holds_the_theorem_rate(scale, passes):
    trace = _short_trace(40)
    mu, f_star = 1.0, 0.5
    # The gap may shrink by a factor 1 - min(gamma mu, a) / 2 a round; this one
    # shrinks by 1 - decrement / scale, so scale < 1 is faster than allowed.
    decrement = min(trace.gamma * mu, trace.worker_c.a) / 2.0
    f = f_star + (1.0 - decrement / scale) ** np.arange(len(trace.f))
    result = linear_rate_check(dataclasses.replace(trace, f=f), mu, f_star)
    assert result.passed == passes, result.line()
    assert result.margin == pytest.approx(decrement / scale - decrement)


def test_linear_rate_check_reports_convergence_only_at_a_zero_final_gap():
    trace = _short_trace(20)
    f_star = 0.5
    gaps = np.linspace(1.0, 0.0, len(trace.f))
    converged = linear_rate_check(dataclasses.replace(trace, f=f_star + gaps), 1.0, f_star)
    assert converged.passed and converged.detail == "gap reached zero, converged"
    gaps = np.ones(len(trace.f))
    gaps[10] = 0.0  # zero at the burn-in round, positive at the end
    regrown = linear_rate_check(dataclasses.replace(trace, f=f_star + gaps), 1.0, f_star)
    assert not regrown.passed and regrown.detail == "gap left zero after round 10"


def test_linear_rate_check_rejects_an_f_star_above_the_objective():
    trace = _short_trace(20)
    f = np.linspace(2.0, 1.0, len(trace.f))
    f[15] = 0.25
    with pytest.raises(ValueError, match=r"f_star=0.5 lies above the objective 0.25 of round 15"):
        linear_rate_check(dataclasses.replace(trace, f=f), 1.0, 0.5)
    with pytest.raises(ValueError, match="f_star=1.5 "):
        linear_rate_check(dataclasses.replace(trace, f=f), 1.0, 1.5)


@ON_THE_BOUND
def test_estimator_recursion_check_holds_the_theorem_recursion(scale, passes):
    trace = _short_trace(20)
    a, b, l_plus = trace.worker_c.a, trace.worker_c.b, 3.0
    g_err, bounds = np.empty_like(trace.g_err), []
    g_err[0] = 1.0
    for t, r in enumerate(trace.r):
        bounds.append((1.0 - a) * g_err[t] + b * l_plus**2 * r)  # G^{t+1} <= (1 - a) G^t + b L+^2 R^t
        g_err[t + 1] = scale * bounds[-1]
    result = estimator_recursion_check(dataclasses.replace(trace, g_err=g_err), l_plus)
    assert result.passed == passes, result.line()
    assert result.margin == pytest.approx(min((1.0 - scale) * v for v in bounds))


@ON_THE_BOUND
def test_master_recursion_check_holds_the_theorem_recursion(scale, passes):
    trace = _short_trace(20, master=EF21(_TOP(2)))
    wa, wb, ma, mb, l_plus = trace.worker_c.a, trace.worker_c.b, trace.master_c.a, trace.master_c.b, 3.0
    assert 0.0 < ma < 1.0 and mb > 0.0
    master_err, bounds = np.empty_like(trace.master_err), []
    master_err[0] = 1.0
    for t, r in enumerate(trace.r):
        # M^{t+1} <= (1 - a_M) M^t + 3 b_M (2 - a_W) G^t + 3 b_M (b_W + 1) L+^2 R^t
        bounds.append(
            (1.0 - ma) * master_err[t] + 3.0 * mb * (2.0 - wa) * trace.g_err[t] + 3.0 * mb * (wb + 1.0) * l_plus**2 * r
        )
        master_err[t + 1] = scale * bounds[-1]
    result = master_recursion_check(dataclasses.replace(trace, master_err=master_err), l_plus)
    assert result.passed == passes, result.line()
    assert result.margin == pytest.approx(min((1.0 - scale) * v for v in bounds))


# A NaN on either side of a gate, or inf on both, fails it: `lhs > bound` is
# False for those, so judging by it alone let each case below pass.
def test_convex_bound_check_fails_a_nan_objective():
    trace = _short_trace(20)
    x_star = np.zeros(trace.states[0].x.shape[1])
    assert convex_bound_check(trace, x_star, 0.0, [5, 20]).passed
    f = trace.f.copy()
    f[20] = np.nan
    assert not convex_bound_check(dataclasses.replace(trace, f=f), x_star, 0.0, [5, 20]).passed


def test_estimator_recursion_check_fails_a_nan_error():
    trace = _short_trace(20)
    assert estimator_recursion_check(trace, 4.0).passed
    g_err = trace.g_err.copy()
    g_err[7] = np.nan
    assert not estimator_recursion_check(dataclasses.replace(trace, g_err=g_err), 4.0).passed


def test_monotone_check_fails_a_nan_potential():
    assert not monotone_check(np.array([3.0, np.nan, 1.0]), "m").passed
    phi = _short_trace(20).phi.copy()
    assert monotone_check(phi, "m").passed
    phi[10] = np.nan
    assert not monotone_check(phi, "m").passed


def test_stationarity_bound_check_fails_an_all_nan_gradient():
    trace = _short_trace(20)
    assert stationarity_bound_check(trace, [5, 20]).passed
    grad_sq = np.full_like(trace.grad_sq, np.nan)
    assert not stationarity_bound_check(dataclasses.replace(trace, grad_sq=grad_sq), [5, 20]).passed


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the margin inf - inf
def test_gates_fail_inf_on_both_sides():
    assert not recursion_check(np.array([1.0, np.inf]), np.array([2.0, np.inf]), "r").passed
    trace = _short_trace(20)
    grad_sq, psi = np.full_like(trace.grad_sq, np.inf), np.full_like(trace.psi, np.inf)
    infinite = dataclasses.replace(trace, grad_sq=grad_sq, psi=psi)
    assert not stationarity_bound_check(infinite, [5, 20]).passed


class _SizedErrorRule(ThreePCSpec):
    """A rule whose squared error |C(x) - x|^2 is ``scale`` times its certified right side."""

    def __init__(self, scale, a, b):
        self.scale, self.cert, self.rhs = scale, ThreePCConstants(a, b), []

    def constants(self, dim):
        return self.cert

    def raw(self, h, y, x, rngs):
        # err(h, y, x) <= (1 - a) |h - y|^2 + b |x - y|^2
        rhs = (1.0 - self.cert.a) * np.sum((h - y) ** 2, axis=1) + self.cert.b * np.sum((x - y) ** 2, axis=1)
        self.rhs.append(rhs)
        out = x.copy()
        out[:, 0] += np.sqrt(self.scale * rhs)
        return _skipping(out)


# b = 0 leaves only the (1 - a) |h - y|^2 term, so the outside case fails on a alone.
@ON_THE_BOUND
@pytest.mark.parametrize("a, b", [(0.5, 0.0), (0.25, 2.0)])
def test_estimate_constants_holds_the_certified_inequality(a, b, scale, passes):
    rule = _SizedErrorRule(scale, a, b)
    report = estimate_constants(rule, 8, 50, SeededRng(3))
    assert report.passed == passes, report
    assert report.worst_slack == pytest.approx(float(np.min((1.0 - scale) * rule.rhs[0])))


def test_estimate_constants_fails_a_nan_error():
    assert estimate_constants(_SizedErrorRule(1.0, 0.5, 2.0), 8, 50, SeededRng(3)).passed
    report = estimate_constants(_SizedErrorRule(np.nan, 0.5, 2.0), 8, 50, SeededRng(3))
    assert not report.passed
    assert report.constants == ThreePCConstants(1.0, 0.0)  # no finite error to fit


@ON_THE_BOUND
def test_contraction_check_holds_the_contraction_bound(scale, passes, monkeypatch):
    k, dim, seen = 3, 8, []

    def sized(c, x, rngs):
        # |C(x) - x|^2 <= (1 - k/d) |x|^2
        seen.append(x.copy())
        return x * (1.0 - np.sqrt(scale * (1.0 - k / dim)))

    monkeypatch.setattr(verification, "_contract_rows", sized)
    result = contraction_check(_TOP(k), dim, 40, seed=5)
    assert result.passed == passes, result.line()
    assert result.margin == pytest.approx(float(np.min((1.0 - scale) * (1.0 - k / dim) * np.sum(seen[0] ** 2, axis=1))))


def test_contraction_check_rejects_zero_vectors():
    with pytest.raises(ValueError, match="n_vectors must be >= 1, got 0"):
        contraction_check(_TOP(1), 8, 0, seed=0)


# The level lists the compressors suite runs ``collapse_checks`` on.
COLLAPSE_LEVELS = {"topk": (_TOP(1), _TOP(8), _IDENT()), "randk": (_RAND(2), _RAND(8))}
_REAL_RAW = AdaCGD.raw


def _skip_rows_keep_x(self, h, y, x, rngs):
    out = _REAL_RAW(self, h, y, x, rngs)
    skipped = out.kinds == SKIP
    out.vectors[skipped] = x[skipped]
    return out


def _zeta_zero_takes_level_1(self, h, y, x, rngs):
    rule = AdaCGD(self.contractors[:1], 0.0) if self.zeta == 0.0 else self
    return _REAL_RAW(rule, h, y, x, rngs)


# Each reduction against a lazy-trigger body with one slip: the slip must fail
# the reduction it concerns and leave the others passing.
@pytest.mark.parametrize("levels", COLLAPSE_LEVELS.values(), ids=list(COLLAPSE_LEVELS))
@pytest.mark.parametrize("slip, zeta_zero_fails, lazy_fails", [
    (None, False, False),
    (_skip_rows_keep_x, False, True),
    (_zeta_zero_takes_level_1, True, False),
], ids=["unpatched", "skip-rows-keep-x", "zeta-zero-takes-level-1"])
def test_collapse_checks_fail_a_slipped_lazy_trigger(levels, slip, zeta_zero_fails, lazy_fails, monkeypatch):
    if slip is not None:
        monkeypatch.setattr(AdaCGD, "raw", slip)
    zeta_zero, *lazy = verification.collapse_checks(levels, 1.0, 16, 300, seed=0)  # zeta = 0, then one per level
    assert zeta_zero.passed != zeta_zero_fails, zeta_zero.line()
    assert [r.passed for r in lazy] == [not lazy_fails] * len(levels), [r.line() for r in lazy]


class _SparseRowsReportFull(EF21):
    """EF21 whose sparse rows report the FULL kind: the same vectors under another payload kind."""

    def raw(self, h, y, x, rngs):
        out = super().raw(h, y, x, rngs)
        out.kinds[out.kinds == SPARSE] = FULL
        return out


def test_collapse_checks_fail_a_fall_through_row_of_another_kind(monkeypatch):
    # The zeta = 0 reduction's vectors agree, so only its kind comparison can fail it.
    monkeypatch.setattr(verification, "EF21", _SparseRowsReportFull)
    zeta_zero = verification.collapse_checks(COLLAPSE_LEVELS["randk"], 1.0, 16, 100, seed=0)[0]
    assert (zeta_zero.passed, zeta_zero.margin) == (False, -1.0), zeta_zero.line()


def test_gd_equivalence_check_fails_a_step_that_is_not_plain_gd(monkeypatch):
    # The check's own GD steps along gradients 1e-9 longer than the engine's.
    real = verification._round_oracle

    def longer(p, xs):
        f, grads = real(p, xs)
        return f, grads * (1.0 + 1e-9)

    monkeypatch.setattr(verification, "_round_oracle", longer)
    quad = verification.pl_quadratic()
    result = verification.gd_equivalence_check(quad, 0.25, 20, seed=0, x0=np.ones(quad.dim))
    assert not result.passed and result.margin < 0.0, result.line()


SAMPLED_CHECKS = {
    "estimate_constants": lambda trials: verification.estimate_constants(EF21(_TOP(1)), 16, trials, SeededRng(0)),
    "collapse_checks": lambda trials: verification.collapse_checks(COLLAPSE_LEVELS["randk"], 1.0, 16, trials, 0),
    "determinism_check": lambda trials: verification.determinism_check(EF21(_RAND(2)), 16, trials, 0),
    "payload_roundtrip_check": lambda trials: verification.payload_roundtrip_check(LAG(1.0), 16, trials, 0),
}


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("check", SAMPLED_CHECKS)
def test_every_sampled_check_rejects_trials_below_one(check, trials):
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        SAMPLED_CHECKS[check](trials)


def _trace_run_configs():
    top = ContractorSpec.top_k
    ef21 = EF21(top(1))
    convex = build_problem(*make_synthetic(SyntheticSpec(200, 20, seed=33)), 4, 0.0, seed=33)
    gamma = theoretical_stepsize("convex", smoothness(convex), ef21.constants(convex.dim))
    yield "convex", lambda: trace_run(convex, ef21, IdentityMaster(), gamma, 300, seed=0, f_star=0.25)

    bidir = build_problem(*make_synthetic(SyntheticSpec(100, 10, seed=14)), 4, 0.1, seed=14)
    wc = ef21.constants(bidir.dim)
    gamma_bd = theoretical_stepsize("bidirectional", smoothness(bidir), wc, wc)
    yield "bidirectional", lambda: trace_run(bidir, ef21, ef21, gamma_bd, 300, seed=2)

    quad = Problem.quadratic(np.concatenate([[1.0], np.linspace(1.5, 4.0, 9)]), n_clients=4)
    gamma_pl = theoretical_stepsize("pl", smoothness(quad), wc)
    yield "pl-quadratic", lambda: trace_run(quad, ef21, IdentityMaster(), gamma_pl, 300, seed=0, x0=np.ones(quad.dim))

    ada = AdaCGD((top(1), top(3), ContractorSpec.identity()), 1.0)
    yield "adacgd-compressed-init", lambda: trace_run(bidir, ada, EF21(top(2)), 0.05, 300, seed=5, init_mode="compressed")


_ZEROS_301 = "5d81987966a0197c8a663d8800d87b97c0c5ea4f619d42f44e22bf5321d14cbb"

# sha256 of each trace_run column's .tobytes() over 300 rounds. The columns
# the Lyapunov, recursion and rate checks read must not move by one bit.
TRACE_RUN_SHA256 = {
    "convex": {
        "f": "d73e5dc5d82d2d1e891ed74d1c0b1967e738b0d470c3c63b31b484d042bd3017",
        "grad_sq": "124183eac7dbc2afa1af668974e994e60fbea44e73bfd2158006a93d5b8bbdc0",
        "g_err": "b721adbd656702e2241ac20cdc6530acd973a4647598d9b4a989f1a902b7d879",
        "master_err": _ZEROS_301,
        "r": "8f64bc77627b630aaca93f48d65a25c48c9acf57d21dbe2a86f19a217633ed0b",
        "phi": "010bf1036134bdabe1c2a27c4fca83aabc0b54c93eb3c74964ad892404d3cbe8",
        "psi": "0d642f064a767b9a8a2cf6ded7f5acd8a436352f3cfc898180bb1e059521bdb6",
    },
    "bidirectional": {
        "f": "995ec41c857944e4c98856e553d2f89ff297f000ce6bfda03ca3656fe4142d3b",
        "grad_sq": "f0a25c1bea0faa58725b3a56f5e1f69708680752525b30c82238f21fcab6bf9a",
        "g_err": "30e12d7de80ae946e648f0b9be28aa4b3e4728ad0bfc3c4df1a2aeff10a4cd90",
        "master_err": "5960f73f987ce05b688272967e5243449e03c26c555ef2be50b89386b23c36e0",
        "r": "37a663aef52061c027795e62758a29a6b1ea60152daaa504628ffc87bbbe27bc",
        "phi": "3548c54c0dd35d427f43c0371ffca085994a677a3c1690cd3115902f3923cecc",
        "psi": "6d309663b32ca3c278bfef69c9826024b97e1238283f18bedd92afa9ff2cd1f7",
    },
    "pl-quadratic": {
        "f": "82fdde00305486be22b8da8f41a84be21df73835253d17e443b03dfd05c57b7f",
        "grad_sq": "473ab16910035982f7844c285e01f797c5cc2b5d4107900927fd0f4a3bfff8b5",
        "g_err": "53a95c2848fa706a866effd908dc74075435dfd20dcee2e55092620c9646d26a",
        "master_err": _ZEROS_301,
        "r": "ee30cb88ca70e2deea4b2a27cc30a1746683112734bb5383e15e6797abc0c9e9",
        "phi": "19e7aaba1a7a8a26d502a53388673d794e327b15da18c8d17f6c0b011e218d2b",
        "psi": "19e7aaba1a7a8a26d502a53388673d794e327b15da18c8d17f6c0b011e218d2b",
    },
    "adacgd-compressed-init": {
        "f": "3b334d43e2062dae78876825859653dd4803204eff6a9241ae4cd15f831f43b0",
        "grad_sq": "16b631991f7bdeaa0e56adec77ba4ec8e759de5465569ac5e130d929660f6bcb",
        "g_err": "991f55c4a4aa7b7d06e9e3465af325cc9eb2dac59a8f9e2ef93f5e995fe157bf",
        "master_err": "c354429cf3f3bda2d9ffd6c57c9e9fb30c577033baa0b88980f9d7f5477d52cf",
        "r": "69dd9fab5e326531f621b9b6084f5cfde0deb0cb7cb6d0bdf31d673ec8d7dc5a",
        "phi": "b8562b3e876332368beb9b8355ab7426fb28543a86f3f571836c7d62fcd1c312",
        "psi": "1ab2e4721e3b0f140fbc2c18643ba6d1a9ec3ba37ab78c3f0d872866e5a42e78",
    },
}


@pytest.mark.parametrize("name", list(TRACE_RUN_SHA256))
def test_trace_run_columns_pinned(name):
    trace = dict(_trace_run_configs())[name]()
    actual = {col: hashlib.sha256(getattr(trace, col).tobytes()).hexdigest() for col in TRACE_RUN_SHA256[name]}
    changed = sorted(col for col, digest in TRACE_RUN_SHA256[name].items() if actual[col] != digest)
    assert not changed, f"trace_run columns changed: {changed}"


def test_gradient_suite_output_independent_of_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import adacgd

    src_dir = str(Path(adacgd.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "adacgd.cli", "verify", "gradients", "--seed", "0"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    assert "smoothness[logistic-nonconvex]" in outputs[0]
    assert outputs[0] == outputs[1]
