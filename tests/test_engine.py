import math

import numpy as np
import pytest

from adacgd.core import SeededRng, ThreePCConstants
from adacgd.compressors import (
    AdaCGD,
    CompressionOutcome,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    Payload,
)
from adacgd.engine import (
    DivergenceError,
    RunSpec,
    StepsizeRule,
    StopRule,
    branch_header_bits,
    init,
    initial_record,
    payload_bits,
    run,
    step,
    theoretical_stepsize,
)
from adacgd.problems import Problem, SmoothnessConstants, full_gradient, loss


def quad(diag, n=1):
    return Problem.quadratic(diag, n_clients=n)


def test_stepsize_examples():
    sc = SmoothnessConstants(1.0, 1.0)
    assert theoretical_stepsize(StepsizeRule.convex(), sc, ThreePCConstants(1.0, 0.0)) == 1.0
    assert theoretical_stepsize(StepsizeRule.convex(), sc, ThreePCConstants(0.5, 1.0)) == pytest.approx(1 / 3)
    gamma = theoretical_stepsize(
        StepsizeRule.bidirectional(), sc, ThreePCConstants(0.5, 2.0), ThreePCConstants(1.0, 0.0)
    )
    assert gamma == pytest.approx(1 / 3)


def test_stepsize_pl_and_multiplied():
    sc = SmoothnessConstants(4.0, 4.0, mu=1.0)
    wc = ThreePCConstants(0.5, 0.0)
    assert theoretical_stepsize(StepsizeRule.pl(), sc, wc) == pytest.approx(min(0.25, 0.25))
    rule = StepsizeRule.multiplied(StepsizeRule.convex(), 8.0)
    assert theoretical_stepsize(rule, sc, wc) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        theoretical_stepsize(StepsizeRule.pl(), SmoothnessConstants(1.0, 1.0), wc)
    with pytest.raises(ValueError):
        theoretical_stepsize(StepsizeRule.bidirectional(), sc, wc)


def test_payload_bits_examples():
    sparse = CompressionOutcome(np.zeros(4), 0, Payload.sparse(np.array([2]), np.array([1.0])))
    assert payload_bits(sparse, 4, 64) == 66
    skip = CompressionOutcome(np.zeros(4), 0, Payload.skip())
    assert payload_bits(skip, 4, 64) == 1
    full = CompressionOutcome(np.zeros(100), 0, Payload.full(np.zeros(100)))
    assert payload_bits(full, 100, 64) == 6400


def test_payload_bits_adaptive_header():
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(3)), 1.0)
    assert branch_header_bits(spec) == 2  # four branch ids including skip
    sparse = CompressionOutcome(np.zeros(4), 1, Payload.sparse(np.array([0]), np.array([1.0])))
    assert payload_bits(sparse, 4, 64, branch_header_bits(spec)) == 68
    assert payload_bits(sparse, 4, 32, branch_header_bits(spec)) == 36
    with pytest.raises(ValueError):
        payload_bits(sparse, 4, 16)


def test_init_full_mode_exact():
    p = quad([1.0, 2.0], n=2)
    state = init(p, EF21(ContractorSpec.identity()), [1.0, 1.0])
    assert np.array_equal(state.g_master, full_gradient(p, [1.0, 1.0]))
    assert state.uplink_bits == 2 * 2 * 64
    assert state.downlink_bits == 2 * 64


def test_init_compressed_mode_strongest_level():
    p = Problem.quadratic([1.0, 1.0, 1.0], n_clients=1)
    # gradient at x0 = [3, -1, 2] is the vector itself for the unit quadratic
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(3)), 1.0)
    state = init(p, spec, [3.0, -1.0, 2.0], "compressed", SeededRng(0))
    assert np.array_equal(state.worker_estimates[0], [3.0, 0.0, 0.0])
    assert state.uplink_bits == 64 + 2  # one value plus ceil(log2 3) index bits


def test_init_compressed_charges_no_more_than_full_vectors():
    # top-50 of d = 50 keeps every entry: sparse framing would cost 50 * (64 + 6)
    # bits per worker, so payload_bits charges the 3200-bit full vector instead.
    p = Problem.quadratic(np.linspace(1.0, 2.0, 50), n_clients=2)
    state = init(p, EF21(ContractorSpec.top_k(50)), np.ones(50), "compressed", SeededRng(0))
    assert state.uplink_bits == 2 * 50 * 64
    assert np.array_equal(state.worker_estimates[1], full_gradient(p, np.ones(50)))


def test_init_rejects_unsupported_value_bits():
    p = quad([1.0, 2.0], n=2)
    for mode in ("full", "compressed"):
        with pytest.raises(ValueError, match="value_bits"):
            init(p, EF21(ContractorSpec.top_k(1)), [1.0, 1.0], mode, SeededRng(0), value_bits=16)


def test_init_full_phi_equals_gap():
    p = quad([1.0, 1.0])
    state = init(p, EF21(ContractorSpec.top_k(1)), [3.0, 4.0])
    record = initial_record(state, p, 0.1, EF21(ContractorSpec.top_k(1)), IdentityMaster(), f_star=0.0)
    assert record.phi == pytest.approx(record.f_value, rel=1e-15)
    assert record.g_error == 0.0
    assert record.master_error == 0.0


def test_step_identity_is_exact_gd():
    p = quad([1.0, 1.0])
    w = EF21(ContractorSpec.identity())
    rng = SeededRng(0)
    state = init(p, w, [5.0, -3.0], "full", rng)
    state, _ = step(state, p, w, IdentityMaster(), 1.0, rng)
    assert np.array_equal(state.x, [0.0, 0.0])  # one-step solve at gamma = 1/L


def test_step_hand_traced_ef21_top1():
    p = quad([1.0, 1.0])
    w = EF21(ContractorSpec.top_k(1))
    rng = SeededRng(0)
    state = init(p, w, [1.0, 1.0], "full", rng)
    assert np.array_equal(state.g_master, [1.0, 1.0])
    state, rec = step(state, p, w, IdentityMaster(), 0.5, rng)
    assert np.array_equal(state.x, [0.5, 0.5])
    # shift rule keeps [1,1] and corrects index 0 first (tie at lowest index)
    assert np.array_equal(state.g_master, [0.5, 1.0])
    assert rec.round == 1
    assert rec.branch_histogram == (1,)


def test_step_counts_skip_bits_and_branches():
    p = quad([1.0, 1.0], n=3)
    w = LAG(1e16)
    rng = SeededRng(0)
    state = init(p, w, [2.0, 2.0], "full", rng)
    before = state.uplink_bits
    state, rec = step(state, p, w, IdentityMaster(), 0.1, rng)
    assert state.uplink_bits - before == 3  # every worker skips at one bit each
    assert rec.branch_histogram == (3, 0)
    assert rec.downlink_bits - (2 * 64) == 2 * 64  # identity master broadcasts in full


def test_uplink_bits_per_round_bounded():
    p = quad([1.0, 2.0, 3.0, 4.0], n=3)
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(4)), 1.0)
    rng = SeededRng(0)
    state = init(p, spec, np.ones(4), "full", rng)
    cap = 3 * (4 * 64 + branch_header_bits(spec))
    for _ in range(20):
        before = state.uplink_bits
        state, _ = step(state, p, spec, IdentityMaster(), 0.05, rng)
        assert state.uplink_bits - before <= cap


def test_lyapunov_exact_estimators():
    p = quad([1.0, 1.0])
    w = EF21(ContractorSpec.identity())
    state = init(p, w, [3.0, 4.0])
    record = initial_record(state, p, 0.5, w, IdentityMaster(), f_star=2.0)
    assert record.phi == pytest.approx(loss(p, [3.0, 4.0]) - 2.0, rel=1e-15)
    assert record.psi == pytest.approx(loss(p, [3.0, 4.0]), rel=1e-15)
    at_min = init(p, w, [0.0, 0.0])
    record = initial_record(at_min, p, 0.5, w, IdentityMaster(), f_star=0.0)
    assert record.phi == 0.0


def test_run_zero_rounds_returns_initial_record():
    p = quad([1.0, 2.0])
    spec = RunSpec(p, EF21(ContractorSpec.top_k(1)), IdentityMaster(), np.ones(2),
                   StepsizeRule.manual(0.1), StopRule(0))
    records = run(spec)
    assert len(records) == 1
    assert records[0].round == 0


def test_run_gd_quadratic_geometric_decay():
    p = quad([1.0, 2.0])
    gamma = 0.5  # 1/L
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.array([1.0, 1.0]),
                   StepsizeRule.manual(gamma), StopRule(30))
    records = run(spec)
    factor = (1 - gamma * 1.0) ** 2
    # coordinate 2 is solved on round one; afterwards decay is exactly (1 - gamma*mu)^2
    for a, b in zip(records[1:], records[2:]):
        assert b.grad_norm_sq == pytest.approx(factor * a.grad_norm_sq, rel=1e-12)


def test_run_stops_on_grad_tolerance():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.full(2, 8.0),
                   StepsizeRule.manual(0.5), StopRule(1000, grad_tol_sq=1e-6))
    records = run(spec)
    assert records[-1].grad_norm_sq <= 1e-6
    assert records[-1].round < 1000


def test_run_stops_on_bit_budget():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.full(2, 8.0),
                   StepsizeRule.manual(0.01), StopRule(1000, bit_budget=2000))
    records = run(spec)
    total = records[-1].uplink_bits + records[-1].downlink_bits
    assert total >= 2000
    assert records[-2].uplink_bits + records[-2].downlink_bits < 2000


def test_bit_budget_overshoot_is_at_most_one_round():
    p = quad([1.0, 2.0, 3.0, 4.0], n=3)
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(4)), 1.0)
    n, d, value_bits = 3, 4, 64
    one_round = n * (d * value_bits + branch_header_bits(spec)) + d * value_bits
    for budget in (5000, 7777, 12345):
        stop = StopRule(1000, bit_budget=budget)
        records = run(RunSpec(p, spec, IdentityMaster(), np.ones(d), StepsizeRule.manual(0.05), stop))
        before, last = (r.uplink_bits + r.downlink_bits for r in records[-2:])
        assert before < budget <= last
        assert last - budget <= last - before <= one_round


def test_divergence_raises_with_partial_trace():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.ones(2),
                   StepsizeRule.manual(1000.0), StopRule(10_000))
    with pytest.raises(DivergenceError) as err:
        run(spec)
    assert err.value.round_index > 0
    assert len(err.value.records) >= 1
    assert err.value.records[0].round == 0


@pytest.mark.parametrize(
    "worker",
    [EF21(ContractorSpec.identity()), EF21(ContractorSpec.top_k(1)), LAG(1.0),
     AdaCGD((ContractorSpec.top_k(1), ContractorSpec.identity()), 1.0)],
)
def test_divergence_round_when_gradient_overflows_before_iterate(worker):
    # Round 1 moves x[0] from 1e-150 to about -1e10: finite, but diag * x
    # overflows to -inf in both clients' gradients.
    p = quad([1e300, 1.0], n=2)
    spec = RunSpec(p, worker, EF21(ContractorSpec.top_k(1)), np.array([1e-150, 1.0]),
                   StepsizeRule.manual(1e-140), StopRule(1000))
    with pytest.raises(DivergenceError) as err:
        run(spec)
    assert err.value.round_index == 1
    assert len(err.value.records) == 1


def test_run_deterministic_with_randomized_compressor():
    p = quad([1.0, 2.0, 3.0], n=2)
    worker = EF21(ContractorSpec.rand_k(1))
    spec = RunSpec(p, worker, IdentityMaster(), np.ones(3), StepsizeRule.manual(0.05),
                   StopRule(25), seed=9)
    a = run(spec)
    b = run(spec)
    assert a == b


def test_master_compression_applied():
    p = quad([1.0, 1.0], n=2)
    w = EF21(ContractorSpec.identity())
    m = EF21(ContractorSpec.top_k(1))
    rng = SeededRng(0)
    state = init(p, w, [4.0, 2.0], "full", rng)
    state, rec = step(state, p, w, m, 0.25, rng)
    # master shifts from its previous broadcast by the top coordinate only
    assert rec.master_error > 0.0
    assert np.count_nonzero(state.g_master - state.g_tilde_master) >= 1


def test_clag_identity_bitwise_gd_trajectory():
    from adacgd.verification import gd_equivalence_check

    p = quad([1.0, 3.0], n=2)
    result = gd_equivalence_check(p, 0.2, 40, seed=0, x0=np.array([2.0, -1.0]))
    assert result.passed


def _logistic(n_examples, dim, n_clients, seed=3):
    from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic

    return build_problem(*make_synthetic(SyntheticSpec(n_examples, dim, seed=seed)), n_clients, 0.1, seed=seed)


@pytest.mark.parametrize(
    "problem",
    [
        _logistic(23, 5, 4),  # 23 mod 4 = 3: unequal shards
        _logistic(12, 4, 1),  # one client
        _logistic(15, 1, 3),  # one coordinate
        Problem.quadratic([0.5, 1.0, 3.0], n_clients=3),
    ],
    ids=["logistic-unequal-shards", "logistic-n1", "logistic-d1", "quadratic-n3"],
)
def test_step_record_matches_public_oracles_bitwise(problem):
    from adacgd.problems import client_gradient

    worker = EF21(ContractorSpec.top_k(1))
    master = IdentityMaster()
    rng = SeededRng(5)
    state = init(problem, worker, np.linspace(-1.0, 2.0, problem.dim), "full", rng)
    for _ in range(4):
        state, rec = step(state, problem, worker, master, 0.1, rng)
        assert rec.f_value == loss(problem, state.x)
        for i in range(problem.n_clients):
            assert np.array_equal(state.worker_prev_grads[i], client_gradient(problem, i, state.x))


def test_step_gives_streams_to_rules_that_draw_only(monkeypatch):
    from adacgd import engine

    seen = []
    original = engine._compress_raw

    def spy(spec, h, y, x, rng):
        seen.append(rng is not None)
        return original(spec, h, y, x, rng)

    monkeypatch.setattr(engine, "_compress_raw", spy)
    p = quad([1.0, 2.0, 3.0], n=2)
    master = EF21(ContractorSpec.top_k(1))
    for worker, draws in ((EF21(ContractorSpec.top_k(1)), False), (EF21(ContractorSpec.rand_k(1)), True)):
        seen.clear()
        rng = SeededRng(1)
        step(init(p, worker, np.ones(3), "full", rng), p, worker, master, 0.1, rng)
        assert seen == [draws, draws, False]
