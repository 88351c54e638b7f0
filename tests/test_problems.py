import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_sim
from adacgd import problems
from adacgd.core import SeededRng, mean_ascending, row_sqnorms
from adacgd.datasets import SyntheticSpec, _client_order, build_problem, make_synthetic
from adacgd.problems import (
    LOGISTIC,
    QUADRATIC,
    ClientRows,
    Problem,
    _round_oracle,
    check_gradient,
    client_gradient,
    client_loss,
    full_gradient,
    loss,
    smoothness,
)


def one_client(features, labels, lam=0.1):
    return Problem.partitioned(features, labels, [len(labels)], lam)


def test_loss_at_origin_is_log_two():
    p = one_client([[1.0, -2.0], [0.5, 0.3]], [1, -1])
    assert loss(p, [0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-15)


def test_quadratic_loss_example():
    p = Problem.quadratic([1.0, 1.0])
    assert loss(p, [3.0, 4.0]) == 12.5


def test_regularizer_only_loss():
    # one example with a zero feature row: logistic part is log 2, penalty 0.05
    p = one_client([[0.0]], [1])
    assert loss(p, [1.0]) == pytest.approx(math.log(2.0) + 0.05, rel=1e-14)


def test_gradient_at_origin_closed_form():
    feats = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])
    labels = np.array([1.0, -1.0, 1.0])
    p = one_client(feats, labels, 0.0)
    expected = -(labels[:, None] * feats).mean(axis=0) / 2.0
    assert np.allclose(client_gradient(p, 0, np.zeros(2)), expected, rtol=1e-15)


def test_quadratic_gradient_shared_across_clients():
    p = Problem.quadratic([1.0, 4.0], n_clients=3)
    x = np.array([2.0, -1.0])
    for i in range(3):
        assert np.array_equal(client_gradient(p, i, x), [2.0, -4.0])


def test_regularizer_gradient_value():
    p = one_client([[0.0]], [1])
    assert client_gradient(p, 0, [1.0])[0] == pytest.approx(0.05, rel=1e-14)


def test_smoothness_examples():
    p = one_client([[2.0, 0.0]], [1.0], 0.0)
    sc = smoothness(p)
    assert sc.l_minus == 1.0 and sc.l_plus == 1.0

    p = one_client([[2.0, 0.0]], [1.0], 0.1)
    sc = smoothness(p)
    assert sc.l_minus == pytest.approx(1.2, rel=1e-15)
    assert sc.l_plus == pytest.approx(1.2, rel=1e-15)

    sc = smoothness(Problem.quadratic([1.0, 4.0]))
    assert sc.l_minus == 4.0 and sc.l_plus == 4.0 and sc.mu == 1.0


def test_smoothness_ordering_invariant():
    features, labels = make_synthetic(SyntheticSpec(60, 6, 3))
    p = build_problem(features, labels, 4, 0.1, 0)
    sc = smoothness(p)
    assert sc.l_minus <= sc.l_plus


def test_smoothness_bounds_hold_empirically():
    features, labels = make_synthetic(SyntheticSpec(50, 5, 9))
    p = build_problem(features, labels, 5, 0.1, 1)
    sc = smoothness(p)
    g = SeededRng(17).generator()
    for _ in range(20):
        x, y = g.standard_normal(5), g.standard_normal(5)
        gap = np.linalg.norm(x - y)
        assert np.linalg.norm(full_gradient(p, x) - full_gradient(p, y)) <= sc.l_minus * gap * (1 + 1e-9)
        mean_sq = np.mean(
            [np.sum((client_gradient(p, i, x) - client_gradient(p, i, y)) ** 2) for i in range(5)]
        )
        assert mean_sq <= sc.l_plus**2 * gap**2 * (1 + 1e-9)


def test_loss_nonnegative():
    features, labels = make_synthetic(SyntheticSpec(40, 4, 5))
    p = build_problem(features, labels, 2, 0.1, 0)
    g = SeededRng(3).generator()
    for _ in range(25):
        assert loss(p, g.standard_normal(4) * 10) >= 0.0


def test_check_gradient_quadratic_exact():
    p = Problem.quadratic([1.0, 2.0, 4.0])
    g = SeededRng(1).generator()
    for _ in range(5):
        assert check_gradient(p, g.standard_normal(3), 1e-5) <= 1e-6


def test_check_gradient_logistic_small_shard():
    g = SeededRng(2).generator()
    feats = g.standard_normal((5, 3))
    labels = np.where(g.random(5) < 0.5, 1.0, -1.0)
    p = one_client(feats, labels)
    assert check_gradient(p, g.standard_normal(3), 1e-5) <= 1e-5
    assert check_gradient(p, np.zeros(3), 1e-5) <= 1e-6


def test_loss_is_mean_of_client_losses():
    features, labels = make_synthetic(SyntheticSpec(30, 4, 8))
    p = build_problem(features, labels, 3, 0.1, 2)
    x = SeededRng(4).generator().standard_normal(4)
    mean = sum(client_loss(p, i, x) for i in range(3)) / 3
    assert loss(p, x) == pytest.approx(mean, rel=1e-15)


def test_loss_stable_at_large_margins():
    p = one_client([[1.0]], [1.0], 0.0)
    assert loss(p, [1000.0]) == pytest.approx(0.0, abs=1e-300)
    assert math.isfinite(loss(p, [-1000.0]))
    assert loss(p, [-1000.0]) == pytest.approx(1000.0, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        Problem.quadratic([-1.0, 2.0])
    p = Problem.quadratic([1.0, 2.0])
    with pytest.raises(ValueError):
        loss(p, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        client_gradient(p, 5, [1.0, 2.0])


def test_problem_rejects_zero_dimension():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        Problem.quadratic([])
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        one_client(np.zeros((2, 0)), [1.0, -1.0])


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
def test_problem_rejects_a_lam_that_is_not_finite_and_non_negative(lam):
    with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
        one_client(np.ones((2, 2)), [1.0, -1.0], lam)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@st.composite
def oracle_cases(draw):
    """A problem and a point: quadratic, or logistic with any shard split on either side of the CSR density rule."""
    seed = draw(st.integers(0, 2**16))
    dim = draw(st.sampled_from([1, 2, 3, 7, 50]))
    n_clients = draw(st.integers(1, 12))
    g = SeededRng(seed).generator()
    if draw(st.booleans()):
        problem = Problem.quadratic(g.random(dim) * 4.0, n_clients=n_clients)
    else:
        n_examples = draw(st.integers(n_clients, 40))
        features, labels = make_synthetic(SyntheticSpec(n_examples, dim, seed, scale=3.0))
        keep = draw(st.sampled_from([1.0, 0.5, 0.2, 0.08, 0.02]))  # about this fraction of entries stays nonzero
        features[g.random(features.shape) >= keep] = 0.0
        if draw(st.booleans()):
            features[draw(st.integers(0, n_examples - 1))] = 0.0  # an all-zero row
        problem = build_problem(features, labels, n_clients, draw(st.sampled_from([0.0, 0.1])), seed)
    return problem, g.standard_normal(dim) * draw(st.sampled_from([0.1, 1.0, 30.0]))


def _sparse_data(n_examples, dim, seed):
    """Rows about 10% nonzero, the first all zeros, their labels, and the generator that drew them."""
    g = SeededRng(seed).generator()
    features, labels = make_synthetic(SyntheticSpec(n_examples, dim, seed, scale=3.0))
    features[g.random(features.shape) >= 0.1] = 0.0
    features[0] = 0.0
    return features, labels, g


def _sparse_case(n_examples, dim, n_clients, seed):
    """A logistic problem on the CSR side of the density rule, its first row all zeros, and a point."""
    features, labels, g = _sparse_data(n_examples, dim, seed)
    problem = build_problem(features, labels, n_clients, 0.1, seed)
    assert problem.rows.sparse
    return problem, g.standard_normal(dim) * 3.0


# (examples, dim, clients, seed): d = 1, one client, and shard sizes that differ (N mod n != 0) among them.
SPARSE_CASES = [(30, 1, 4, 2), (9, 7, 1, 2), (23, 5, 4, 6), (41, 50, 12, 4), (300, 20, 7, 4)]


def _assert_oracle_is_the_reference(problem, x):
    """The round oracle and the per-client pair at x against the reference oracle: bit for bit on dense
    rows and quadratics; on CSR rows, whose products add in another order, within 1e-12 of the sum of the
    magnitudes of the terms that make each value and gradient entry."""
    (f,), (grads,) = _round_oracle(problem, x[None])
    n = problem.n_clients
    values = [client_loss(problem, i, x) for i in range(n)]
    got = np.stack([client_gradient(problem, i, x) for i in range(n)])
    assert _bits(got) == _bits(grads) and _bits(loss(problem, x)) == _bits(f)
    reference = reference_sim.objective_of(problem)
    want_f, want_grads = reference(x)
    want_values = [client(x)[0] for client in reference.clients]
    if problem.kind == QUADRATIC or not problem.rows.sparse:
        assert _bits(f) == _bits(want_f) and _bits(values) == _bits(want_values)
        assert grads.shape == (n, problem.dim) and _bits(grads) == _bits(np.stack(want_grads))
        return
    scales = [reference_sim.logistic_magnitudes(s.features, s.labels, problem.lam, x) for s in problem.shards]
    for value, want, grad, want_grad, (value_scale, grad_scale) in zip(values, want_values, grads, want_grads, scales):
        assert abs(value - want) <= 1e-12 * value_scale
        assert np.all(np.abs(grad - want_grad) <= 1e-12 * grad_scale)
    assert abs(f - want_f) <= 1e-12 * sum(scale for scale, _ in scales) / n


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_round_oracle_matches_the_reference_oracle(case):
    _assert_oracle_is_the_reference(*case)


@pytest.mark.parametrize("case", SPARSE_CASES)
def test_round_oracle_on_sparse_rows_matches_the_reference_oracle(case):
    _assert_oracle_is_the_reference(*_sparse_case(*case))


@pytest.mark.parametrize("name", ["client_loss", "client_gradient", "loss"])
def test_every_oracle_name_reads_the_one_oracle_body(name, monkeypatch):
    def body(*args):
        raise AssertionError("reached the oracle body")

    monkeypatch.setattr(problems, "_client_oracle", body)
    for problem in (Problem.quadratic([1.0, 2.0], n_clients=2), one_client(np.eye(3, 2), [1.0, -1.0, 1.0])):
        args = (problem, 0, np.ones(2)) if name.startswith("client") else (problem, np.ones(2))
        with pytest.raises(AssertionError, match="reached the oracle body"):
            getattr(problems, name)(*args)


@pytest.mark.parametrize("case", SPARSE_CASES)
def test_sparse_shards_read_back_the_input_rows_and_their_smoothness(case):
    problem, _ = _sparse_case(*case)
    # The densified shards are the input rows in client order, every value;
    # held as dense rows, they give the same smoothness.
    features, labels, _ = _sparse_data(*case[:2], case[3])
    order, _ = _client_order(labels, problem.n_clients, case[3])
    rows = np.concatenate([shard.features for shard in problem.shards])
    assert _bits(rows) == _bits(features[order])
    got = smoothness(problem)
    dense_rows = ClientRows(rows, labels[order], problem.rows.offsets)
    want = smoothness(Problem(LOGISTIC, problem.dim, problem.lam, problem.n_clients, dense_rows))
    assert (got.l_minus, got.l_plus) == pytest.approx((want.l_minus, want.l_plus), rel=1e-12)


def _sparse_oracle_digest() -> str:
    """sha256 of the round oracle's f and gradient bytes on every SPARSE_CASES problem."""
    digest = hashlib.sha256()
    for case in SPARSE_CASES:
        problem, x = _sparse_case(*case)
        (f,), (grads,) = _round_oracle(problem, x[None])
        digest.update(_bits(f) + _bits(grads))
    return digest.hexdigest()


def _has_avx2() -> bool:
    cpuinfo = Path("/proc/cpuinfo")
    return "avx2" in (cpuinfo.read_text() if cpuinfo.exists() else "")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="forces OpenBLAS's x86-64 kernels")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_sparse_round_oracle_bits_do_not_depend_on_the_blas_kernel(coretype):
    if coretype == "Haswell" and not _has_avx2():
        pytest.skip("needs an x86-64 CPU with AVX2 to force OpenBLAS's Haswell kernel")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import test_problems; print(test_problems._sparse_oracle_digest())"],
        env=dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == _sparse_oracle_digest()


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not _has_avx2(),
    reason="needs an x86-64 CPU with AVX2 to force OpenBLAS's Haswell kernel",
)
def test_round_oracle_property_holds_under_the_haswell_blas_kernel():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_round_oracle_matches_the_reference_oracle"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout


@pytest.mark.parametrize("dim", [1, 2, 3, 50, 2000])
def test_mean_ascending_equals_the_ascending_loop(dim):
    g = SeededRng(11).generator()
    for n in range(1, 65):
        rows = g.standard_normal((n, dim)) * 10.0 ** g.integers(-8, 8, (n, dim))
        rows[g.random((n, dim)) < 0.25] = -0.0
        acc = np.zeros(dim)
        for row in rows:
            acc += row
        acc /= n
        assert _bits(mean_ascending(rows)) == _bits(acc)
    all_negative_zero = np.full((3, dim), -0.0)
    assert _bits(mean_ascending(all_negative_zero)) == _bits(np.zeros(dim))


@st.composite
def stacked_cases(draw):
    """A problem (dense groups, CSR rows or a quadratic) and an (R, d) stack of points, at d in {1, 2, 50, 2000}."""
    seed = draw(st.integers(0, 2**16))
    dim = draw(st.sampled_from([1, 2, 50, 2000]))
    kind = draw(st.sampled_from(["dense", "sparse", "quadratic"]))
    n_clients = draw(st.integers(1, 5))
    g = SeededRng(seed).generator()
    if kind == "quadratic":
        problem = Problem.quadratic(g.random(dim) * 4.0, n_clients=n_clients)
    else:
        n_examples = draw(st.integers(n_clients, 3 * n_clients + 4))  # unequal shard sizes too
        features, labels = make_synthetic(SyntheticSpec(n_examples, dim, seed, scale=3.0))
        if kind == "sparse":  # keep size // 8 entries, at random places
            features.reshape(-1)[g.permutation(features.size)[features.size // 8 :]] = 0.0
        problem = build_problem(features, labels, n_clients, draw(st.sampled_from([0.0, 0.1])), seed)
        assert problem.rows.sparse == (kind == "sparse")
    runs = draw(st.integers(1, 6))
    xs = g.standard_normal((runs, dim)) * g.choice([0.0, 0.1, 1.0, 30.0], size=(runs, 1))
    return problem, xs


@settings(max_examples=60, deadline=None)
@given(stacked_cases())
def test_round_oracle_gives_each_point_of_a_stack_its_one_point_result(case):
    problem, xs = case
    f, grads = _round_oracle(problem, xs)
    assert f.shape == (xs.shape[0],) and grads.shape == (xs.shape[0], problem.n_clients, problem.dim)
    for r, x in enumerate(xs):
        (f_alone,), (grads_alone,) = _round_oracle(problem, x.copy()[None])
        assert _bits(f[r]) == _bits(f_alone) and _bits(grads[r]) == _bits(grads_alone)
        _assert_oracle_is_the_reference(problem, x.copy())


@pytest.mark.parametrize("dim", [1, 2, 50, 2000])
def test_mean_and_row_norms_of_a_stack_are_each_runs_own(dim):
    g = SeededRng(12).generator()
    for runs, n in ((1, 1), (3, 1), (2, 7), (5, 9), (4, 20)):
        rows = g.standard_normal((runs, n, dim)) * 10.0 ** g.integers(-8, 8, (runs, n, dim))
        rows[g.random(rows.shape) < 0.25] = -0.0
        means, norms, point_norms = mean_ascending(rows), row_sqnorms(rows), row_sqnorms(rows[:, 0])
        assert means.shape == (runs, dim) and norms.shape == (runs, n) and point_norms.shape == (runs,)
        for r in range(runs):
            assert _bits(means[r]) == _bits(mean_ascending(rows[r].copy()))
            assert _bits(norms[r]) == _bits(row_sqnorms(rows[r].copy()))
            assert _bits(point_norms[r]) == _bits(float(rows[r, 0] @ rows[r, 0]))


@pytest.mark.parametrize("n_examples,n_clients", [(23, 4), (20, 4), (9, 1), (7, 7)])
def test_every_shard_is_a_view_into_its_group(n_examples, n_clients):
    """A group is a run of consecutive clients with one shard size, which the round oracle views as (clients, m, d)."""
    features, labels = make_synthetic(SyntheticSpec(n_examples, 3, seed=2))
    p = build_problem(features, labels, n_clients, 0.1, seed=2)
    assert len(p.rows.runs) == (1 if n_examples % n_clients == 0 else 2)
    storage = p.rows.matrix  # one (N, d) array in client order holds every row
    assert storage.shape == (n_examples, 3) and not np.shares_memory(storage, features)
    seen = []
    for client, row, g, m in p.rows.runs:
        for j in range(g):
            shard, first = p.shards[client + j], row + j * m
            assert shard.features.base is storage and shard.features.shape == (m, 3)
            assert shard.features.ctypes.data == storage[first:].ctypes.data
            assert shard.labels.ctypes.data == p.rows.labels[first:].ctypes.data and shard.labels.shape == (m,)
            seen.append(client + j)
    assert seen == list(range(n_clients))


@pytest.mark.parametrize("sizes", [[2, 2], [3, 3], [5, 0], [6, -1], []])
def test_partitioned_rejects_sizes_that_do_not_cover_the_rows(sizes):
    with pytest.raises(ValueError, match=re.escape(f"shard sizes {sizes} must each be >= 1 and add up to the 5 rows")):
        Problem.partitioned(np.ones((5, 2)), np.ones(5), sizes, 0.1)


@pytest.mark.parametrize("density", ["dense", "mostly-zero"])
@pytest.mark.parametrize("fault, match", [("nan", "non-finite"), ("inf", "non-finite"), ("label", "labels must be -1 or")])
def test_partitioned_rejects_bad_rows_in_either_form(density, fault, match):
    features = np.ones((16, 4)) if density == "dense" else np.eye(16, 4)  # 4 of 64 entries nonzero
    labels = np.ones(16)
    if fault == "label":
        labels[5] = 0.5
    else:
        features[5, 2] = float(fault)
    with pytest.raises(ValueError, match=match):
        Problem.partitioned(features, labels, [8, 8], 0.1)
    if density == "mostly-zero":
        features[5, 2], labels[5] = 0.0, 1.0
        assert Problem.partitioned(features, labels, [8, 8], 0.1).rows.sparse


def test_problem_rejects_rows_that_do_not_fit_in_either_form():
    sparse = Problem.partitioned(np.eye(16, 4), np.ones(16), [8, 8], 0.1).rows
    dense = Problem.partitioned(np.ones((16, 4)), np.ones(16), [8, 8], 0.1).rows
    assert sparse.sparse and not dense.sparse
    for rows in (sparse, dense):
        shape = re.escape(str(rows.matrix.shape))
        with pytest.raises(ValueError, match=f"rows of shape {shape} do not fit 4 clients of dim 4"):
            Problem(LOGISTIC, 4, 0.1, 4, rows)
        with pytest.raises(ValueError, match=f"rows of shape {shape} do not fit 2 clients of dim 3"):
            Problem(LOGISTIC, 3, 0.1, 2, rows)
        with pytest.raises(ValueError, match=f"rows of shape {shape} do not fit 2 clients of dim 4"):
            Problem(LOGISTIC, 4, 0.1, 2, ClientRows(rows.matrix, rows.labels, np.array([0, 8, 15])))
        with pytest.raises(ValueError, match="shard must contain at least one example"):
            Problem(LOGISTIC, 4, 0.1, 2, ClientRows(rows.matrix, rows.labels, np.array([0, 0, 16])))
        with pytest.raises(ValueError, match="labels must be -1 or"):
            Problem(LOGISTIC, 4, 0.1, 2, ClientRows(rows.matrix, np.where(np.arange(16) == 3, 2.0, 1.0), rows.offsets))
        assert len(Problem(LOGISTIC, 4, 0.1, 2, rows).shards) == 2


@pytest.mark.parametrize("layout", ["int64", "fortran"])
def test_partitioned_holds_float64_groups_that_its_shards_view(layout):
    rows = np.arange(15).reshape(5, 3) % 4
    labels = np.array([1, -1, 1, 1, -1])
    if layout == "fortran":
        rows, labels = np.asfortranarray(rows, dtype=np.float64), labels.astype(np.float64)
    p = Problem.partitioned(rows, labels, [2, 2, 1], 0.1)
    assert not p.rows.sparse and [(g, m) for _, _, g, m in p.rows.runs] == [(2, 2), (1, 1)]
    assert p.rows.matrix.dtype == p.rows.labels.dtype == np.float64 and p.rows.matrix.flags.c_contiguous
    for shard in p.shards:
        assert np.shares_memory(shard.features, p.rows.matrix) and np.shares_memory(shard.labels, p.rows.labels)
    assert _bits(np.concatenate([s.features for s in p.shards])) == _bits(np.asarray(rows, dtype=np.float64))


def test_build_problem_without_a_copy_keeps_the_callers_array_as_its_storage():
    features, labels = make_synthetic(SyntheticSpec(23, 3, seed=2))
    kept = features.copy()
    copied = build_problem(features, labels, 4, 0.1, seed=2)
    assert np.array_equal(features, kept)  # the default copy leaves the input alone
    moved = build_problem(features, labels, 4, 0.1, seed=2, copy=False)
    assert moved.rows.matrix is features
    for a, b in zip(copied.shards, moved.shards):
        assert _bits(a.features) == _bits(b.features) and _bits(a.labels) == _bits(b.labels)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**16), st.integers(1, 5))
def test_reorder_rows_in_place_matches_fancy_indexing(n, seed, chunk):
    from adacgd.datasets import _reorder_rows

    g = SeededRng(seed).generator()
    a = g.standard_normal((n, 3))
    order = g.permutation(n)
    expected = a[order]
    _reorder_rows(a, order, chunk)
    assert _bits(a) == _bits(expected)
