import hashlib
from functools import partial

import numpy as np
import pytest

from adacgd import verification
from adacgd.compressors import AdaCGD, ContractorSpec, EF21, IdentityMaster, LAG
from adacgd.core import SeededRng, ThreePCConstants
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.engine import theoretical_stepsize
from adacgd.problems import Problem, smoothness
from adacgd.verification import (
    PropertyResult,
    contraction_check,
    convex_bound_check,
    estimate_constants,
    linear_rate_check,
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
    "compressors": "2ab16209333a0b3dc9402f857d671388dc4c04b8b4d76547a971f18b8f49d5af",
    "gradients": "7d642089b854af61f2bb0af5c6a4f9a9f52940b23b7352b7d114f0d8006ff4f7",
    "lyapunov": "eca09d59d7ae6946584d2ec6f58f4fa1aafb6e44fc50d4659542429464cde9b6",
    "bounds": "c026a275517f661cddee1fa6d9d91a5c4820fa05c9dfc48a41f7d97f3411e611",
}


@pytest.mark.parametrize("suite", ["compressors", "gradients", "lyapunov", "bounds"])
def test_suites_pass_at_small_scale(suite):
    results = run_suite(suite, seed=0, trials=150)
    assert results, "suite produced no checks"
    failing = [r.line() for r in results if not r.passed]
    assert not failing, failing
    output = "\n".join(r.line() for r in results)
    assert hashlib.sha256(output.encode()).hexdigest() == SUITE_OUTPUT_SHA256[suite], output


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


def _short_trace(rounds):
    quad = Problem.quadratic(np.linspace(1.0, 4.0, 6), n_clients=2)
    return trace_run(quad, EF21(_TOP(1)), IdentityMaster(), 0.05, rounds, seed=0, x0=np.ones(quad.dim))


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


def test_contraction_check_rejects_zero_vectors():
    with pytest.raises(ValueError, match="n_vectors must be >= 1, got 0"):
        contraction_check(_TOP(1), 8, 0, seed=0)


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
