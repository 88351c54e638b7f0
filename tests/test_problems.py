import math

import numpy as np
import pytest

from adacgd.core import SeededRng
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.problems import (
    Problem,
    Shard,
    check_gradient,
    client_gradient,
    client_loss,
    full_gradient,
    loss,
    smoothness,
)


def single_shard(features, labels):
    return Problem.logistic((Shard(np.asarray(features, float), np.asarray(labels, float)),), 0.1)


def test_loss_at_origin_is_log_two():
    p = single_shard([[1.0, -2.0], [0.5, 0.3]], [1, -1])
    assert loss(p, [0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-15)


def test_quadratic_loss_example():
    p = Problem.quadratic([1.0, 1.0])
    assert loss(p, [3.0, 4.0]) == 12.5


def test_regularizer_only_loss():
    # one example with a zero feature row: logistic part is log 2, penalty 0.05
    p = single_shard([[0.0]], [1])
    assert loss(p, [1.0]) == pytest.approx(math.log(2.0) + 0.05, rel=1e-14)


def test_gradient_at_origin_closed_form():
    feats = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])
    labels = np.array([1.0, -1.0, 1.0])
    p = Problem.logistic((Shard(feats, labels),), 0.0)
    expected = -(labels[:, None] * feats).mean(axis=0) / 2.0
    assert np.allclose(client_gradient(p, 0, np.zeros(2)), expected, rtol=1e-15)


def test_quadratic_gradient_shared_across_clients():
    p = Problem.quadratic([1.0, 4.0], n_clients=3)
    x = np.array([2.0, -1.0])
    for i in range(3):
        assert np.array_equal(client_gradient(p, i, x), [2.0, -4.0])


def test_regularizer_gradient_value():
    p = single_shard([[0.0]], [1])
    assert client_gradient(p, 0, [1.0])[0] == pytest.approx(0.05, rel=1e-14)


def test_smoothness_examples():
    p = Problem.logistic((Shard(np.array([[2.0, 0.0]]), np.array([1.0])),), 0.0)
    sc = smoothness(p)
    assert sc.l_minus == 1.0 and sc.l_plus == 1.0

    p = Problem.logistic((Shard(np.array([[2.0, 0.0]]), np.array([1.0])),), 0.1)
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
    p = Problem.logistic((Shard(feats, labels),), 0.1)
    assert check_gradient(p, g.standard_normal(3), 1e-5) <= 1e-5
    assert check_gradient(p, np.zeros(3), 1e-5) <= 1e-6


def test_loss_is_mean_of_client_losses():
    features, labels = make_synthetic(SyntheticSpec(30, 4, 8))
    p = build_problem(features, labels, 3, 0.1, 2)
    x = SeededRng(4).generator().standard_normal(4)
    mean = sum(client_loss(p, i, x) for i in range(3)) / 3
    assert loss(p, x) == pytest.approx(mean, rel=1e-15)


def test_loss_stable_at_large_margins():
    p = Problem.logistic((Shard(np.array([[1.0]]), np.array([1.0])),), 0.0)
    assert loss(p, [1000.0]) == pytest.approx(0.0, abs=1e-300)
    assert math.isfinite(loss(p, [-1000.0]))
    assert loss(p, [-1000.0]) == pytest.approx(1000.0, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        Shard(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        Shard(np.zeros((2, 2)), np.array([1.0, 2.0]))  # bad label
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
    featureless = Shard(np.zeros((2, 0)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        Problem.logistic((featureless,), 0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
def test_problem_rejects_a_lam_that_is_not_finite_and_non_negative(lam):
    shard = Shard(np.ones((2, 2)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
        Problem.logistic((shard,), lam)
