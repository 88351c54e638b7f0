import math
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from adacgd.core import SeededRng, ThreePCConstants
from adacgd.compressors import (
    FULL,
    SKIP,
    SPARSE,
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
)
from adacgd import compressors, engine
from adacgd.engine import (
    DivergenceError,
    RunSpec,
    StopRule,
    branch_header_bits,
    init,
    iterate,
    message_bits,
    run,
    step,
    theoretical_stepsize,
)
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.problems import Problem, SmoothnessConstants, full_gradient, loss, smoothness
from adacgd.verification import _fields
import reference_sim


def quad(diag, n=1):
    return Problem.quadratic(diag, n_clients=n)


def test_stepsize_examples():
    sc = SmoothnessConstants(1.0, 1.0)
    assert theoretical_stepsize("convex", sc, ThreePCConstants(1.0, 0.0)) == 1.0
    assert theoretical_stepsize("convex", sc, ThreePCConstants(0.5, 1.0)) == pytest.approx(1 / 3)
    gamma = theoretical_stepsize("bidirectional", sc, ThreePCConstants(0.5, 2.0), ThreePCConstants(1.0, 0.0))
    assert gamma == pytest.approx(1 / 3)


def test_stepsize_pl_and_rule_errors():
    # The multiplied stepsize is a sweep's product mult * gamma; its values are
    # pinned by test_sweep_header_stepsize_and_constants_pinned.
    sc = SmoothnessConstants(4.0, 4.0, mu=1.0)
    wc = ThreePCConstants(0.5, 0.0)
    assert theoretical_stepsize("pl", sc, wc) == pytest.approx(min(0.25, 0.25))
    assert theoretical_stepsize("convex", sc, wc) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        theoretical_stepsize("pl", SmoothnessConstants(1.0, 1.0), wc)
    with pytest.raises(ValueError):
        theoretical_stepsize("bidirectional", sc, wc)
    with pytest.raises(ValueError, match="choose from convex, nonconvex, pl, bidirectional"):
        theoretical_stepsize("manual", sc, wc)


def test_message_bits_examples():
    assert message_bits(SPARSE, 1, 4) == 66  # one 64-bit value and 2 index bits
    assert message_bits(SKIP, 0, 4) == 1
    assert message_bits(FULL, 0, 100) == 6400
    # At d = 50 an entry costs 64 + 6 bits, so 46 or more sparse entries hit the 64 * d cap.
    kinds = np.array([SKIP, SPARSE, SPARSE, SPARSE, FULL])
    entries = np.array([0, 5, 45, 46, 0])
    assert message_bits(kinds, entries, 50, 2).tolist() == [1, 5 * 70 + 2, 45 * 70 + 2, 64 * 50 + 2, 64 * 50]


def test_message_bits_adaptive_header():
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(3)), 1.0)
    assert branch_header_bits(spec) == 2  # four branch ids including skip
    assert message_bits(SPARSE, 1, 4, branch_header_bits(spec)) == 68


_TOP1, _TOP2, _TOP3, _TOP4 = (ContractorSpec.top_k(k) for k in (1, 2, 3, 4))
_RAND1 = ContractorSpec.rand_k(1)


@pytest.mark.parametrize(
    "contractors",
    [(_TOP1,), (_TOP1, _TOP3), (_TOP1, _TOP2, _TOP4), (_RAND1,), (_RAND1, _TOP3), (_RAND1, _TOP2, _TOP4)],
    ids=["top-1", "top-2", "top-3", "rand-1", "rand-2", "rand-3"],
)
def test_adacgd_messages_in_a_run_match_the_reference(contractors, monkeypatch):
    # Every worker message of a run, on the (h, y, x) and streams the engine
    # passes, equals tests/reference_sim.py's on every CompressedRows field.
    features, labels = make_synthetic(SyntheticSpec(n_examples=60, dim=6, seed=3))
    problem = build_problem(features, labels, n_clients=3, lam=0.1, seed=3)
    worker = AdaCGD(contractors, 1.0)
    mismatches, branches = [], set()

    def checked(spec, h, y, x, rngs):
        out = engine_compress(spec, h, y, x, rngs)
        if spec is worker:
            def draw(t, j, k):  # the package's rand-k support at level j of row t
                return np.sort(rngs[t].derive(j).generator().choice(x.shape[1], k, replace=False))

            messages = [
                reference_sim.adacgd(h[t], y[t], x[t], contractors, 1.0, lambda j, k, t=t: draw(t, j, k))
                for t in range(x.shape[0])
            ]
            mismatches.extend(reference_sim.mismatched(_fields(out), reference_sim.fields(messages, x.shape[1])))
            branches.update(out.branches.tolist())
        return out

    engine_compress = engine._compress_raw
    monkeypatch.setattr(engine, "_compress_raw", checked)
    list(run(RunSpec(problem, worker, IdentityMaster(), np.zeros(6), 0.5, StopRule(10), seed=4)))
    assert not mismatches
    assert len(branches) >= 2


def _reference_rule(spec) -> reference_sim.Rule:
    if isinstance(spec, CLAG):  # LAG too
        return reference_sim.Rule("clag", spec.contractors, spec.zeta)
    if isinstance(spec, AdaCGD):
        return reference_sim.Rule("adacgd", spec.contractors, spec.zeta)
    return reference_sim.Rule("ef21", (spec.contractor,))


def _reference_draw(seed: int, dim: int):
    """The reference loop's rand-k supports, drawn as the engine draws them: round 0 on stream
    (INIT, worker), round t on (WORKER, t - 1, worker) or (MASTER, t - 1), level j on its derive(j)."""
    tags = {"init": engine._INIT_TAG, "worker": engine._WORKER_TAG, "master": engine._MASTER_TAG}

    def draw(key, *branch_and_k):
        where, *index = key
        if where != "init":
            index[0] -= 1
        stream = SeededRng(seed).derive(tags[where], *index)
        *branch, k = branch_and_k
        if branch:
            stream = stream.derive(*branch)
        return np.sort(stream.generator().choice(dim, k, replace=False))

    return draw


def _sparse_problem(n_examples, dim, n_clients, seed):
    features, labels = make_synthetic(SyntheticSpec(n_examples, dim, seed, scale=2.0))
    features[SeededRng(seed).generator().random(features.shape) >= 0.1] = 0.0
    problem = build_problem(features, labels, n_clients, 0.1, seed)
    assert problem.rows.sparse
    return problem


LOOP_PROBLEMS = {
    "dense-unequal-shards": lambda: build_problem(*make_synthetic(SyntheticSpec(23, 5, seed=3, scale=2.0)), 4, 0.1, 3),
    "csr": lambda: _sparse_problem(41, 6, 3, 8),
    "csr-d1": lambda: _sparse_problem(30, 1, 4, 2),
    "quadratic": lambda: quad([0.5, 1.0, 3.0], n=3),
}


def _loop_rules(dim):
    top, rand, identity = ContractorSpec.top_k, ContractorSpec.rand_k, ContractorSpec.identity()
    k = min(2, dim)
    return {
        "ef21-top": EF21(top(1)),
        "ef21-rand": EF21(rand(k)),
        "ef21-identity": EF21(identity),
        "adacgd-top": AdaCGD((top(1), top(k)) if dim > 1 else (top(1), identity), 2.0),
        "adacgd-rand-first": AdaCGD((rand(1), top(k), identity) if dim > 1 else (rand(1), identity), 2.0),
        "clag": CLAG(top(1), 2.0),
        "lag": LAG(2.0),
    }


@pytest.mark.parametrize("rule", list(_loop_rules(2)))
@pytest.mark.parametrize("problem_name", list(LOOP_PROBLEMS))
def test_every_round_matches_the_reference_loop(problem_name, rule):
    # Bits and branch histograms exactly; the floats bit for bit where the
    # summation orders match (dense rows, quadratics), and within 1e-12
    # relative on CSR rows, whose products add in another order. A squared
    # gap between two vectors of about the mean gradient's size is judged
    # relative to the gap plus that size: two runs of a gap that is 0 up to
    # rounding can differ by the square of their rounding.
    problem = LOOP_PROBLEMS[problem_name]()
    d, rounds, seed = problem.dim, 6, 5
    worker = _loop_rules(d)[rule]
    exact = problem.kind == "quadratic" or not problem.rows.sparse
    x0 = np.linspace(-1.0, 2.0, d)
    gamma = 1.0 / smoothness(problem).l_plus
    branches = set()
    for master in (IdentityMaster(), EF21(ContractorSpec.top_k(1))):
        for init_mode in ("full", "compressed"):
            spec = RunSpec(problem, worker, master, x0, gamma, StopRule(rounds), seed, init_mode)
            wc, mc = worker.constants(d), master.constants(d)
            want = reference_sim.simulate(
                reference_sim.objective_of(problem), _reference_rule(worker), _reference_rule(master), x0, gamma,
                rounds, init_mode == "compressed", _reference_draw(seed, d), (wc.a, wc.b), (mc.a, mc.b),
            )
            for (state, got), ref in zip(islice(iterate(spec), rounds + 1), want, strict=True):
                where = (master, init_mode, got.round)
                assert (got.round, got.uplink_bits, got.downlink_bits, got.branch_histogram) == (
                    ref.round, ref.uplink_bits, ref.downlink_bits, ref.branch_histogram), where
                branches.update(b for b, count in enumerate(got.branch_histogram) if count)
                for name in ("x", "f_value", "grad_norm_sq", "phi", "psi", "g_error", "master_error"):
                    ours = state.x[0] if name == "x" else getattr(got, name)
                    theirs = np.asarray(getattr(ref, name), dtype=np.float64)
                    if exact:
                        assert np.asarray(ours, dtype=np.float64).tobytes() == theirs.tobytes(), (name, where)
                    else:
                        scale = np.max(np.abs(theirs)) + (ref.grad_norm_sq if name.endswith("error") else 0.0)
                        assert np.max(np.abs(ours - theirs)) <= 1e-12 * scale, (name, where)
    if worker.branch_count > 1:  # a lazy or adaptive rule both skipped and sent
        assert 0 in branches and len(branches) >= 2, branches


def test_init_full_mode_exact():
    p = quad([1.0, 2.0], n=2)
    state = init(p, EF21(ContractorSpec.identity()), [1.0, 1.0])
    assert np.array_equal(state.g_master, [full_gradient(p, [1.0, 1.0])])  # a stack of one run
    assert state.uplink_bits.tolist() == [2 * 2 * 64]
    assert state.downlink_bits.tolist() == [2 * 64]


def test_init_compressed_mode_strongest_level():
    p = Problem.quadratic([1.0, 1.0, 1.0], n_clients=1)
    # gradient at x0 = [3, -1, 2] is the vector itself for the unit quadratic
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(3)), 1.0)
    state = init(p, spec, [3.0, -1.0, 2.0], "compressed", SeededRng(0))
    assert np.array_equal(state.worker_estimates[0, 0], [3.0, 0.0, 0.0])
    assert state.uplink_bits.tolist() == [64 + 2]  # one value plus ceil(log2 3) index bits


def test_init_compressed_charges_no_more_than_full_vectors():
    # top-50 of d = 50 keeps every entry: sparse framing would cost 50 * (64 + 6)
    # bits per worker, so message_bits charges the 3200-bit full vector instead.
    p = Problem.quadratic(np.linspace(1.0, 2.0, 50), n_clients=2)
    state = init(p, EF21(ContractorSpec.top_k(50)), np.ones(50), "compressed", SeededRng(0))
    assert state.uplink_bits.tolist() == [2 * 50 * 64]
    assert np.array_equal(state.worker_estimates[0, 1], full_gradient(p, np.ones(50)))


def test_init_full_phi_equals_gap():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.top_k(1)), IdentityMaster(), np.array([3.0, 4.0]), 0.1, StopRule(0))
    record = run(spec)[0]
    assert record.phi == pytest.approx(record.f_value, rel=1e-15)
    assert record.g_error == 0.0
    assert record.master_error == 0.0


def test_step_identity_is_exact_gd():
    p = quad([1.0, 1.0])
    w = EF21(ContractorSpec.identity())
    rng = SeededRng(0)
    state = init(p, w, [5.0, -3.0], "full", rng)
    state = step(state, p, w, IdentityMaster(), 1.0, rng)
    assert np.array_equal(state.x, [[0.0, 0.0]])  # one-step solve at gamma = 1/L


def test_step_hand_traced_ef21_top1():
    p = quad([1.0, 1.0])
    w = EF21(ContractorSpec.top_k(1))
    rounds = iterate(RunSpec(p, w, IdentityMaster(), np.array([1.0, 1.0]), 0.5, StopRule(1)))
    state, _ = next(rounds)
    assert np.array_equal(state.g_master, [[1.0, 1.0]])
    state, rec = next(rounds)
    assert np.array_equal(state.x, [[0.5, 0.5]])
    # shift rule keeps [1,1] and corrects index 0 first (tie at lowest index)
    assert np.array_equal(state.g_master, [[0.5, 1.0]])
    assert rec.round == 1
    assert rec.branch_histogram == (1,)


def test_step_counts_skip_bits_and_branches():
    p = quad([1.0, 1.0], n=3)
    w = LAG(1e16)
    rounds = iterate(RunSpec(p, w, IdentityMaster(), np.array([2.0, 2.0]), 0.1, StopRule(1)))
    state, _ = next(rounds)
    before = state.uplink_bits[0]
    state, rec = next(rounds)
    assert state.uplink_bits[0] - before == 3  # every worker skips at one bit each
    assert rec.branch_histogram == (3, 0)
    assert rec.downlink_bits - (2 * 64) == 2 * 64  # identity master broadcasts in full


def test_uplink_bits_per_round_bounded():
    p = quad([1.0, 2.0, 3.0, 4.0], n=3)
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(4)), 1.0)
    rng = SeededRng(0)
    state = init(p, spec, np.ones(4), "full", rng)
    cap = 3 * (4 * 64 + branch_header_bits(spec))
    for _ in range(20):
        before = state.uplink_bits[0]
        state = step(state, p, spec, IdentityMaster(), 0.05, rng)
        assert state.uplink_bits[0] - before <= cap


def test_lyapunov_exact_estimators():
    p = quad([1.0, 1.0])
    w = EF21(ContractorSpec.identity())
    record = run(RunSpec(p, w, IdentityMaster(), np.array([3.0, 4.0]), 0.5, StopRule(0), f_star=2.0))[0]
    assert record.phi == pytest.approx(loss(p, [3.0, 4.0]) - 2.0, rel=1e-15)
    assert record.psi == pytest.approx(loss(p, [3.0, 4.0]), rel=1e-15)
    record = run(RunSpec(p, w, IdentityMaster(), np.zeros(2), 0.5, StopRule(0), f_star=0.0))[0]
    assert record.phi == 0.0


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
def test_run_spec_rejects_a_stepsize_that_is_not_finite_and_positive(gamma):
    with pytest.raises(ValueError, match="must be positive and finite"):
        RunSpec(quad([1.0, 2.0]), EF21(ContractorSpec.identity()), IdentityMaster(), np.ones(2), gamma, StopRule(1))


@pytest.mark.parametrize("seed", [1.5, -1, 1 << 64])
def test_run_spec_rejects_a_seed_that_is_not_an_unsigned_64_bit_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        RunSpec(quad([1.0, 2.0]), EF21(ContractorSpec.identity()), IdentityMaster(), np.ones(2), 0.5, StopRule(1), seed)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
def test_step_rejects_a_stepsize_that_is_not_finite_and_positive(gamma):
    p = quad([1.0, 2.0])
    w = EF21(ContractorSpec.identity())
    rng = SeededRng(0)
    with pytest.raises(ValueError, match="must be positive and finite"):
        step(init(p, w, np.ones(2), "full", rng), p, w, IdentityMaster(), gamma, rng)


def test_iterate_yields_every_round_past_the_stop_rule():
    p = quad([1.0, 2.0], n=2)
    spec = RunSpec(p, EF21(ContractorSpec.top_k(1)), IdentityMaster(), np.ones(2), 0.1, StopRule(0))
    pairs = list(islice(iterate(spec), 6))
    assert [state.round for state, _ in pairs] == [rec.round for _, rec in pairs] == list(range(6))
    assert [rec for _, rec in pairs] == run(RunSpec(p, spec.worker_spec, spec.master_spec, spec.x0, 0.1, StopRule(5)))


def test_run_zero_rounds_returns_initial_record():
    p = quad([1.0, 2.0])
    spec = RunSpec(p, EF21(ContractorSpec.top_k(1)), IdentityMaster(), np.ones(2),
                   0.1, StopRule(0))
    records = run(spec)
    assert len(records) == 1
    assert records[0].round == 0


def test_run_gd_quadratic_geometric_decay():
    p = quad([1.0, 2.0])
    gamma = 0.5  # 1/L
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.array([1.0, 1.0]),
                   gamma, StopRule(30))
    records = run(spec)
    factor = (1 - gamma * 1.0) ** 2
    # coordinate 2 is solved on round one; afterwards decay is exactly (1 - gamma*mu)^2
    for a, b in zip(records[1:], records[2:]):
        assert b.grad_norm_sq == pytest.approx(factor * a.grad_norm_sq, rel=1e-12)


def test_run_stops_on_grad_tolerance():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.full(2, 8.0),
                   0.5, StopRule(1000, grad_tol_sq=1e-6))
    records = run(spec)
    assert records[-1].grad_norm_sq <= 1e-6
    assert records[-1].round < 1000


def test_run_stops_on_bit_budget():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.full(2, 8.0),
                   0.01, StopRule(1000, bit_budget=2000))
    records = run(spec)
    total = records[-1].uplink_bits + records[-1].downlink_bits
    assert total >= 2000
    assert records[-2].uplink_bits + records[-2].downlink_bits < 2000


def test_bit_budget_overshoot_is_at_most_one_round():
    p = quad([1.0, 2.0, 3.0, 4.0], n=3)
    spec = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2), ContractorSpec.top_k(4)), 1.0)
    n, d = 3, 4
    one_round = n * (64 * d + branch_header_bits(spec)) + 64 * d
    for budget in (5000, 7777, 12345):
        stop = StopRule(1000, bit_budget=budget)
        records = run(RunSpec(p, spec, IdentityMaster(), np.ones(d), 0.05, stop))
        before, last = (r.uplink_bits + r.downlink_bits for r in records[-2:])
        assert before < budget <= last
        assert last - budget <= last - before <= one_round


def test_divergence_raises_with_partial_trace():
    p = quad([1.0, 1.0])
    spec = RunSpec(p, EF21(ContractorSpec.identity()), IdentityMaster(), np.ones(2),
                   1000.0, StopRule(10_000))
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
                   1e-140, StopRule(1000))
    with pytest.raises(DivergenceError) as err:
        run(spec)
    assert err.value.round_index == 1
    assert len(err.value.records) == 1
    assert err.value.reason == "gradient of client 0"
    assert str(err.value) == "non-finite gradient of client 0 at round 1"


@pytest.mark.parametrize(
    "diag,x0,gamma,round_index,reason",
    [
        # x: 1 -> -1e200 (f = 5e299, finite) -> 1e400, which overflows in the step.
        ([1e-100], [1.0], 1e300, 2, "iterate"),
        # x grows 999-fold a round; x * x overflows long before x does.
        ([1.0, 1.0], [1.0, 1.0], 1000.0, 52, "objective"),
        # Round 0's gradient 1e200 is finite, but its square is not.
        ([1e200], [1.0], 1e-300, 0, "squared gradient norm"),
    ],
    ids=["iterate", "objective", "gradient-norm"],
)
def test_divergence_error_names_what_went_non_finite(diag, x0, gamma, round_index, reason):
    spec = RunSpec(quad(diag), EF21(ContractorSpec.identity()), IdentityMaster(), np.array(x0), gamma, StopRule(1000))
    with pytest.raises(DivergenceError) as err:
        run(spec)
    assert (err.value.round_index, err.value.reason) == (round_index, reason)
    assert len(err.value.records) == round_index


def test_run_deterministic_with_randomized_compressor():
    p = quad([1.0, 2.0, 3.0], n=2)
    worker = EF21(ContractorSpec.rand_k(1))
    spec = RunSpec(p, worker, IdentityMaster(), np.ones(3), 0.05,
                   StopRule(25), seed=9)
    a = run(spec)
    b = run(spec)
    assert a == b


def test_master_compression_applied():
    p = quad([1.0, 1.0], n=2)
    w = EF21(ContractorSpec.identity())
    m = EF21(ContractorSpec.top_k(1))
    _, (state, rec) = islice(iterate(RunSpec(p, w, m, np.array([4.0, 2.0]), 0.25, StopRule(1))), 2)
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


@pytest.mark.parametrize("problem", [_logistic(23, 5, 4), quad([1.0, 2.0, 3.0], n=2)], ids=["logistic", "quadratic"])
@pytest.mark.parametrize("fill, gamma, round_index", [(1e308, 0.1, 0), (1.0, 1e300, 1)], ids=["round-0", "round-1"])
def test_oracle_overflow_is_divergence_under_warnings_as_errors(problem, fill, gamma, round_index):
    # Round 0 and every later round take f and the gradients through one
    # oracle path under one error state, so an overflow anywhere is reported
    # as divergence at its round, never as a RuntimeWarning.
    spec = RunSpec(problem, EF21(ContractorSpec.top_k(1)), IdentityMaster(), np.full(problem.dim, fill), gamma,
                   StopRule(10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run(spec)
    assert err.value.round_index == round_index
    assert len(err.value.records) == round_index


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
    spec = RunSpec(problem, worker, master, np.linspace(-1.0, 2.0, problem.dim), 0.1, StopRule(4), seed=5)
    for state, rec in islice(iterate(spec), 5):
        assert rec.f_value == loss(problem, state.x[0])
        for i in range(problem.n_clients):
            assert np.array_equal(state.worker_prev_grads[0, i], client_gradient(problem, i, state.x[0]))


@pytest.mark.parametrize("n_examples, dim, n_clients", [(23, 5, 4), (30, 600, 3)], ids=["narrow", "wide"])
def test_iterate_never_changes_a_state_it_has_yielded(n_examples, dim, n_clients):
    # The worker rule works in place on its own x - h; a yielded state's
    # arrays are the next round's inputs and must keep their bits.
    problem = _logistic(n_examples, dim, n_clients)
    levels = sorted({1, dim // 5, dim // 2})
    worker = AdaCGD(tuple(ContractorSpec.top_k(k) for k in levels) + (ContractorSpec.rand_k(dim),), 1.0)
    spec = RunSpec(problem, worker, EF21(ContractorSpec.top_k(dim // 2)), np.zeros(dim), 0.5, StopRule(6), seed=2)
    fields = ("x", "g_master", "g_tilde_master", "worker_estimates", "worker_prev_grads", "f_value")
    yielded = [(state, [getattr(state, f).copy() for f in fields]) for state, _ in islice(iterate(spec), 7)]
    for state, copies in yielded:
        for name, kept in zip(fields, copies):
            assert getattr(state, name).tobytes() == kept.tobytes(), (state.round, name)
    taken = {int(b) for state, _ in yielded for b in np.flatnonzero(state.branch_histogram.sum(axis=0))}
    assert taken >= {0, len(levels), len(levels) + 1}  # skips, a probed top-k level and the rand-k fallback


@pytest.mark.parametrize("problem", [_logistic(23, 5, 4), quad([1.0, 2.0, 3.0], n=2)], ids=["logistic", "quadratic"])
def test_runs_and_reference_solves_use_only_the_round_oracle(problem, monkeypatch):
    from adacgd import engine, problems
    from adacgd.experiments import solve_reference

    def per_client_oracle(*args):
        raise AssertionError("a run reached the per-client oracle")

    for module, name in ((problems, "client_gradient"), (problems, "client_loss"), (engine, "client_gradient"),
                         (engine, "loss")):
        monkeypatch.setattr(module, name, per_client_oracle)
    worker = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(2)), 1.0)
    x0 = np.linspace(-1.0, 2.0, problem.dim)
    for init_mode in ("full", "compressed"):
        for master in (IdentityMaster(), EF21(ContractorSpec.top_k(1))):
            spec = RunSpec(problem, worker, master, x0, 0.05, StopRule(3), init_mode=init_mode)
            assert [state.round for state, _ in islice(iterate(spec), 4)] == [0, 1, 2, 3]
    assert solve_reference(problem, 1e-6).grad_norm <= 1e-6


def test_step_gives_streams_to_rules_that_draw_only(monkeypatch):
    from adacgd import engine

    seen = []
    original = engine._compress_raw

    def spy(spec, h, y, x, rngs):
        seen.append((spec, h.shape, y.shape, x.shape, None if rngs is None else len(rngs)))
        return original(spec, h, y, x, rngs)

    monkeypatch.setattr(engine, "_compress_raw", spy)
    p = quad([1.0, 2.0, 3.0], n=2)
    master = EF21(ContractorSpec.top_k(1))
    for worker, streams in ((EF21(ContractorSpec.top_k(1)), None), (EF21(ContractorSpec.rand_k(1)), 2)):
        seen.clear()
        rng = SeededRng(1)
        step(init(p, worker, np.ones(3), "full", rng), p, worker, master, 0.1, rng)
        # Round 0's full messages draw nothing; then one stacked call for both
        # workers and the master's one-row call.
        assert seen == [
            (EF21(ContractorSpec.identity()), (2, 3), (2, 3), (2, 3), None),
            (worker, (2, 3), (2, 3), (2, 3), streams),
            (master, (1, 3), (1, 3), (1, 3), None),
        ]


def test_a_stack_draws_each_rand_k_support_once_per_distinct_stream(monkeypatch):
    # A stack's runs read the same worker streams, and all its master rows one
    # stream, so a rand-k level draws once per distinct stream of the rows it
    # probes, not once per row.
    draws, calls = [0], []
    generators, contract_support = compressors.stream_generators, compressors._contract_support

    def counted_generators(streams):
        for g in generators(streams):
            draws[0] += 1
            yield g

    def recorded_support(c, x, rngs):
        if c.randomized:
            calls.append(list(rngs))
        return contract_support(c, x, rngs)

    monkeypatch.setattr(compressors, "stream_generators", counted_generators)
    monkeypatch.setattr(compressors, "_contract_support", recorded_support)
    problem = build_problem(*make_synthetic(SyntheticSpec(40, 8, seed=2, scale=2.0)), 3, 0.1, seed=2)
    worker = AdaCGD((ContractorSpec.rand_k(1), ContractorSpec.rand_k(3), ContractorSpec.top_k(8)), 1.0)
    spec = RunSpec(problem, worker, EF21(ContractorSpec.rand_k(2)), np.zeros(8), 0.5, StopRule(12), seed=3)

    def counts(specs):
        draws[0] = 0
        calls.clear()
        run(specs)
        return draws[0], sum(len(set(rngs)) for rngs in calls), sum(len(rngs) for rngs in calls)

    alone = counts(spec)
    # Two runs that differ only in f_star probe the same rows each round: the
    # stack draws what one run draws alone, half of one draw per row.
    twins = counts([spec, replace(spec, f_star=0.1)])
    assert twins[0] == twins[1] == alone[0] == alone[1] == alone[2]
    assert 2 * twins[0] == twins[2]
    # Runs at different stepsizes probe different rows, but a client's rows
    # still share one draw per level.
    drawn, distinct, rows = counts([spec, replace(spec, gamma=2.0)])
    assert drawn == distinct < rows
