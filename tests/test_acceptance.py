"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 2, 4 and 5 run ``verification``'s sampled checks, and 6-9 its
theorem suites, at full size, as ``adacgd verify`` runs them. Criterion 3
holds AdaCGD to the independent reference in ``tests/reference_sim.py`` on
the triples verify's sampler draws; no test here has a sampler of its own.
The protocol sweep is a module-scoped fixture so the suite stays in budget.
"""

import dataclasses
import hashlib
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import reference_sim
from adacgd import verification
from adacgd.compressors import AdaCGD, ContractorSpec
from adacgd.core import SeededRng
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.experiments import RunConfig, load_config, read_trace, run_experiment
from adacgd.problems import Problem, smoothness
from adacgd.verification import (
    THEOREM_RULES,
    TOP_LEVELS,
    bidirectional_suite,
    collapse_checks,
    contraction_check,
    convex_rate_suite,
    gd_equivalence_check,
    gradient_suite,
    pl_quadratic,
    pl_rate_suite,
    recursion_suite,
    threepc_check,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status}: {detail}")


def test_criterion_1_contraction():
    t0 = time.time()
    results = []
    for dim in (2, 10, 100):
        for k in sorted({1, dim // 2, dim} - {0}):
            results.append(contraction_check(ContractorSpec.top_k(k), dim, 10_000, seed=7))
    for dim, k in ((2, 1), (10, 3), (100, 25)):
        results.append(contraction_check(ContractorSpec.rand_k(k), dim, 64, seed=7))
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and elapsed < 10.0
    report(1, ok, f"{len(results)} checks, worst margin {min(r.margin for r in results):.3e}, {elapsed:.1f}s")
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert elapsed < 10.0


def test_criterion_2_threepc_inequality():
    t0 = time.time()
    dim = 16
    results = [threepc_check(spec, dim, 10_000, seed=3, name=name) for name, spec in THEOREM_RULES]
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    worst = min(r.margin for r in results)
    report(2, ok, f"{len(THEOREM_RULES)} specs x 10^4 triples, worst slack {worst:.3e}, {elapsed:.1f}s")
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert elapsed < 30.0


def test_criterion_3_adacgd_matches_the_reference():
    # verify's sampled triples plus rows where a level's candidate error is
    # exactly its budget, against tests/reference_sim.py on every field.
    rng = SeededRng(5, verification._VERIFY_STREAM)
    sampled, boundary = verification._triple_stacks(rng, 16, 10_000), reference_sim.boundary_triples(16, (1, 4))
    h, y, x = (np.concatenate(pair) for pair in zip(sampled, boundary))
    streams = [rng.derive(t, 1) for t in range(h.shape[0])]

    def draw(t, j, k):
        return np.sort(streams[t].derive(j).generator().choice(16, k, replace=False))

    failing = {}
    for name, levels in (("top-1/4/8", TOP_LEVELS), ("rand-2/8", (ContractorSpec.rand_k(2), ContractorSpec.rand_k(8)))):
        ours = verification._fields(AdaCGD(levels, 1.0).raw(h, y, x, streams))
        messages = [reference_sim.adacgd(h[t], y[t], x[t], levels, 1.0, partial(draw, t)) for t in range(h.shape[0])]
        failing[name] = reference_sim.mismatched(ours, reference_sim.fields(messages, 16))
    ok = not any(failing.values())
    report(3, ok, f"AdaCGD {' and '.join(failing)} equal the reference on {h.shape[0]} triples "
                  f"({boundary[0].shape[0]} on a level's boundary), every field: {ok}")
    assert ok, failing


def test_criterion_4_special_case_collapse():
    collapse = collapse_checks(TOP_LEVELS, 1.0, 10, 10_000, seed=9)
    features, labels = make_synthetic(SyntheticSpec(20, 10, seed=4))
    problem = build_problem(features, labels, 4, 0.1, seed=4)
    gd = gd_equivalence_check(problem, 1.0 / smoothness(problem).l_minus, 100, seed=0)
    exact = all(r.passed for r in collapse)
    ok = exact and gd.passed
    report(4, ok, f"{len(collapse)} reductions exact on 10^4 triples: {exact}, GD bitwise over 100 rounds: {gd.passed}")
    assert ok, [r.line() for r in (*collapse, gd) if not r.passed]


def test_criterion_5_gradient_correctness():
    features, labels = make_synthetic(SyntheticSpec(80, 8, seed=12))
    logistic = build_problem(features, labels, 4, 0.1, seed=12)
    quadratic = Problem.quadratic(np.linspace(0.5, 4.0, 8), n_clients=4)
    results = gradient_suite([("logistic", logistic), ("quadratic", quadratic)], 20, seed=21)
    ok = all(r.passed for r in results)
    report(5, ok, " | ".join(r.line() for r in results))
    assert ok, [r.line() for r in results if not r.passed]


def check_descent_and_bound(criterion, per_rule):
    """Criteria 6 and 8: each rule's potential descent and rate bound, its checks done inside 60 s."""
    t0 = time.time()
    for name, (mono, bound) in per_rule:
        elapsed = time.time() - t0
        ok = mono.passed and bound.passed and elapsed < 60.0
        report(criterion, ok, f"{name}: {mono.line()} | {bound.detail} | {elapsed:.1f}s")
        assert ok, f"{name}: {mono.line()} | {bound.line()} | {elapsed:.1f}s"
        t0 = time.time()


# A reference solve that misses its 1e-10 gradient tolerance warns; here that is an error.
@pytest.mark.filterwarnings("error:reference solve stopped:RuntimeWarning")
def test_criterion_6_convex_rate():
    check_descent_and_bound(6, convex_rate_suite(seed=0, rounds=2000, checkpoints=[100, 500, 2000]))


def test_criterion_7_per_round_recursions():
    for name, results in recursion_suite(seed=0, rounds=500):
        ok = all(r.passed for r in results)
        report(7, ok, f"{name}: " + " | ".join(r.line() for r in results))
        assert ok, name


def test_criterion_8_bidirectional_bound():
    check_descent_and_bound(8, bidirectional_suite(seed=0, rounds=1000, checkpoints=[100, 1000]))


def test_criterion_9_linear_rate():
    sc = smoothness(pl_quadratic())
    assert sc.mu == 1.0 and sc.l_plus == 4.0
    for name, (rate,) in pl_rate_suite(seed=0, rounds=500):
        report(9, rate.passed, f"{name}: {rate.detail}")
        assert rate.passed, f"{name}: {rate.line()}"


PROTOCOL_DATASET = "synthetic:n=1000,d=50,seed=7,scale=3,cond=200"
PROTOCOL_CONFIG = RunConfig(
    dataset=PROTOCOL_DATASET,
    n_clients=20,
    lam=0.1,
    methods=("gd", "ef21:k=1", "lag", "clag:k=1", "adacgd"),
    multipliers=tuple(float(2**i) for i in range(9)),
    zeta=1.0,
    max_rounds=3000,
    grad_tol_sq=1e-4,
    seed=1,
)


def test_protocol_config_file_matches_protocol():
    # `adacgd run --config scripts/protocol.cfg` runs this same protocol.
    loaded = load_config(str(Path(__file__).resolve().parents[1] / "scripts" / "protocol.cfg"))
    assert loaded == dataclasses.replace(PROTOCOL_CONFIG, out_dir=loaded.out_dir)


@pytest.fixture(scope="module")
def protocol_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("protocol")
    config = dataclasses.replace(PROTOCOL_CONFIG, out_dir=str(out))
    t0 = time.time()
    result = run_experiment(config)
    return config, result, time.time() - t0


def test_criterion_10_protocol(protocol_result, tmp_path):
    config, result, elapsed = protocol_result
    assert elapsed < 600.0, f"protocol sweep took {elapsed:.0f}s"

    assert len(result.entries) == 5 * 9
    for entry in result.entries:
        meta, records = read_trace(Path(entry.trace_path))
        assert meta["method"] == entry.method
        assert [r.round for r in records] == list(range(len(records)))
        uplinks = [r.uplink_bits for r in records]
        assert uplinks == sorted(uplinks)

    # determinism: re-running the adaptive method's best configuration
    # reproduces its trace byte for byte
    best_ada = next(result.best[m] for m in result.best if m.startswith("adacgd"))
    rerun_cfg = dataclasses.replace(
        config, methods=("adacgd",), multipliers=(best_ada.multiplier,), out_dir=str(tmp_path)
    )
    rerun = run_experiment(rerun_cfg)
    assert Path(rerun.entries[0].trace_path).read_bytes() == Path(best_ada.trace_path).read_bytes()

    lag_best = next((result.best[m] for m in result.best if m.startswith("lag")), None)
    summary = Path(result.summary_path).read_text()
    ordering = "not comparable (a method missed the tolerance)"
    if lag_best is not None and best_ada is not None:
        assert any(note.startswith("adacgd_vs_lag") for note in result.notes)
        assert "adacgd_vs_lag" in summary
        if best_ada.uplink_bits_to_tol <= lag_best.uplink_bits_to_tol:
            ordering = (
                f"adacgd <= lag uplink bits ({best_ada.uplink_bits_to_tol} <= {lag_best.uplink_bits_to_tol})"
            )
        else:
            # Recorded and flagged rather than failed, per the protocol contract.
            ordering = (
                f"INVERTED on bundled data ({best_ada.uplink_bits_to_tol} > {lag_best.uplink_bits_to_tol})"
            )
    report(10, True, f"45 runs in {elapsed:.0f}s, traces parse, deterministic; ordering: {ordering}")


# sha256 of every file the protocol sweep writes. Produced with NumPy 2.4.6
# on OpenBLAS 0.3.31 (scipy-openblas64, DYNAMIC_ARCH), CPython 3.11, x86_64.
# Traces are byte-identical for a given platform and BLAS build, so another
# BLAS or CPU kernel may legitimately change the last bits of a float column;
# a refactor that keeps the same build must keep every one of these hashes.
PROTOCOL_GOLDEN_SHA256 = {
    "gd_x1.csv": "3122bbe19c217dea122e659a9475ff1770ba06152086d9e148cd1bd46b194b66",
    "gd_x2.csv": "0ee020e7a37970bb02070d268f30800d2f2c1ae2cbffea988c6e6dfb909ad819",
    "gd_x4.csv": "177bfa165366a8e40b09a6b1eb72a0403aeba995b889800036d7ff5fdc67c5a8",
    "gd_x8.csv": "b59e9f2906328b0042394a57437e4e35a5062703d8374ba8b1c5c07f67dccc49",
    "gd_x16.csv": "0d68e8f6a09b97be717f0fbfa159ae061fd8b4bf37824621ace6ef215264e243",
    "gd_x32.csv": "1f284ceb1c08ff0aca5b3888062c90996104d353ccf6a8933b1b232b61af68c4",
    "gd_x64.csv": "c8d6c3e586aedbf49ae9ad788171a93c7dd561e7c766ded4dd9f02c532790cff",
    "gd_x128.csv": "2452b6168439640c1e78bdf1556a4cc327c0491230b48702cd3e677bdd2c6559",
    "gd_x256.csv": "1eb58769d702e7a3e1ed3c6b150bf50befcc08e7f2dfaf5c952391319119ada9",
    "ef21_k1_x1.csv": "09336aa062b792b5acfc000791592ffe38ab9b3ffeac9516ca4cb040c878c9c4",
    "ef21_k1_x2.csv": "56e060c09999214259d9e8d3b4a1e8179923dd1878f9ecb565d0138528153e56",
    "ef21_k1_x4.csv": "70b76bdb5683a5c5a516aa23e8d270bcdf5d05963054d2a799bca765fcdbaa88",
    "ef21_k1_x8.csv": "584b05a65932d9eb218358e9a54d55b74e9fb4aa4cbf99958a5c96943e888af6",
    "ef21_k1_x16.csv": "b56b79969a2c0a106f03c7ae8914bd82a6296c379b92fd403ef2e53e537cf2b2",
    "ef21_k1_x32.csv": "da2461c4761335288ce43ac2911ea3c6a205553d860f0623c45995f224add556",
    "ef21_k1_x64.csv": "e330b29e2f72e3811a45030646de08389ceb770be2029c45292f6e6c95157b42",
    "ef21_k1_x128.csv": "de0ddd85f68c6445ff1668eabcef00aa42064497146d9acd3dbed386e2078f90",
    "ef21_k1_x256.csv": "a471ffbef1fb6636d44f9b09d0a53a596e3738c8cce6d10bf25adaeb26adf762",
    "lag_z1_x1.csv": "9e67d89d49c3efa84bf91139d751364a7d6c427fd3e6e897ed6502159f744c88",
    "lag_z1_x2.csv": "513c4506663acad10c10cae5c03d2b04cf9889db5f7d31c78395b6c35792bf60",
    "lag_z1_x4.csv": "dc463c2025acbaa183c44740e06d0100064e97e9ae69c365a729b49d9b3c7ec4",
    "lag_z1_x8.csv": "44acbdec44fc624a56d67fb4207b3e8052c6425b6cdfbaf5e1fe7b15fbb9d3cc",
    "lag_z1_x16.csv": "05d6d67687553fb960c24c49737d24f9b92a08bb2ff487309c35d7133be300d3",
    "lag_z1_x32.csv": "f35d7f71d3d29db5593a909ed7101f5941e2b66d3e60bac11c1149011541e8c6",
    "lag_z1_x64.csv": "4938bd92f75d3d04036930d593466b651a8e829ec0648e79b5bd4351979c99aa",
    "lag_z1_x128.csv": "46c513fb43d587d69e242b257dc82ce415927d818a12aefad14f494752932ac9",
    "lag_z1_x256.csv": "a0339bc95cb86638d71af12534a26c3cd6d4d2e3a1a298e9e128cd0d1929480b",
    "clag_k1_z1_x1.csv": "240ff9c12d6e33cf041379550220a44ec0e27c3d083f1bb0404c507c23880d25",
    "clag_k1_z1_x2.csv": "a30b7a98216da292be754b1a323b47dc1eacf3342c65d429e679b207bbf60afa",
    "clag_k1_z1_x4.csv": "b824f4af81e46dd7617b86791303f8af94990060fc0b24e6e459e809dec65edf",
    "clag_k1_z1_x8.csv": "ed48ef926357fdf0e4bc2b64d292ae241a9723ee5ae458d2db4e5f63fe14cce7",
    "clag_k1_z1_x16.csv": "2c8ba7c42a9a94c11208f4d74e5cc24b1e75772637461b9683c0e845fef7eea8",
    "clag_k1_z1_x32.csv": "8344df2e605cde1685b9b00d10ee035b73d3b22bb6932511e6f1e6b1bfa83067",
    "clag_k1_z1_x64.csv": "3b8ef4256a5489e9cc62ed986d4091c7438a7ef40e2a8ac7bb958347e02a5d18",
    "clag_k1_z1_x128.csv": "d7cb5e3ef84c848ac0430ea5272dfb5e759c7ce2d4c71c72dbb86a007e1c6903",
    "clag_k1_z1_x256.csv": "36d78e7857ce5b6a17450ed97a60b90f8bc975663f7dbf1e319c2dfc8146123b",
    "adacgd_z1_x1.csv": "eebd2bdd7fab402fe605feec75a55c75f70e95654cd9cc16a79fc9c775932155",
    "adacgd_z1_x2.csv": "a7add25ee4bfa356883bc19e8ee1cd1460301b04f4c4eb970bb828bf6776ad83",
    "adacgd_z1_x4.csv": "377ca1cb9695119439489029d15b72a362fe97a1cafa70fd4f9469d06c5078fe",
    "adacgd_z1_x8.csv": "d69318a623b97ff0c1db7eed9bd2f9ae6cee57edd6acb702ed2e2dc2658e8a96",
    "adacgd_z1_x16.csv": "e385895e8bbe159fa05040ceb1b576f3d17be8dc9733efec12e2898664d583ad",
    "adacgd_z1_x32.csv": "f267ab8910a7e59c3c0795d502fe277218d3af2a41daf531952d39715e1d05d4",
    "adacgd_z1_x64.csv": "a7cf216805c42ba24e8503da59a64aba95111a0fcbc568a90425b02cb044aee8",
    "adacgd_z1_x128.csv": "647040d99e446a80b0963eeb35335356fdc3ec61062f77ed90b4b5b2091fd82b",
    "adacgd_z1_x256.csv": "19712a2cab8ecb3e3f6cbb16a1f921e41168acc26cd6a028ac067fd286377ab8",
    "summary.csv": "b40c00b1e9a34b1a6cd000ad08ddd9cb93922d44a7126f300eeea1bfadcbf64a",
}


def test_protocol_golden_hashes(protocol_result):
    config, result, _ = protocol_result
    out = Path(config.out_dir)
    written = [Path(e.trace_path) for e in result.entries] + [Path(result.summary_path)]
    actual = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert actual.keys() == PROTOCOL_GOLDEN_SHA256.keys()
    changed = sorted(name for name, digest in PROTOCOL_GOLDEN_SHA256.items() if actual[name] != digest)
    assert not changed, f"trace bytes changed: {changed}"
