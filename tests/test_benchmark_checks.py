"""The benchmark's output checks still read the program as they expect.

Tier-1 collects only ``tests/``, so a change to what ``perfbench`` reads of
the program outside its tracer would break the benchmark silently:
``checks.Oracle`` evaluates the objective from ``Problem.shards``, and the
tracer counts parsed rows with ``len``. So would a rule that bills other
bits than the cost model the workloads state. These tests load
``perfbench/checks.py`` the way ``test_benchmark_hooks.py`` loads
``tracer.py``, hold what it reads to the program, and run tiny sweeps
through its trace checks.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from adacgd import experiments
from adacgd.compressors import AdaCGD, ContractorSpec
from adacgd.core import SeededRng, mean_ascending
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic, parse_libsvm
from adacgd.problems import _round_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # checks.py imports workloads by this name, and dataclasses look their module up
    spec.loader.exec_module(module)
    return module


with mock.patch.dict(sys.modules):  # the bare names leave sys.modules again afterwards
    workloads = _load("workloads")
    checks = _load("checks")


@pytest.mark.parametrize("density", ["dense", "mostly-zero"])
def test_benchmark_oracle_agrees_with_the_round_oracle(density):
    features, labels = make_synthetic(SyntheticSpec(61, 12, seed=3, scale=2.0))
    g = SeededRng(3).generator()
    if density == "mostly-zero":
        features[g.random(features.shape) >= 0.1] = 0.0
    problem = build_problem(features, labels, 5, 0.1, seed=3)  # shards of 13 and 12 rows
    assert problem.rows.sparse == (density == "mostly-zero")
    oracle = checks.Oracle(problem.shards, problem.lam)
    xs = g.standard_normal((3, 12))
    values, grads = _round_oracle(problem, xs)
    for x, f, client_grads in zip(xs, values, grads):
        value, grad = oracle.value_grad(x)
        full = mean_ascending(client_grads)
        assert abs(value - f) <= 1e-12 * abs(f)
        assert np.linalg.norm(grad - full) <= 1e-12 * np.linalg.norm(full)


def test_parsed_rows_have_the_length_the_tracer_counts():
    rows, _ = parse_libsvm("+1 1:0.5 2:1\n# comment\n\n-1\n+1 3:-0.5\n")
    assert len(rows) == 3


@pytest.mark.parametrize("name", ["protocol_sweep", "highdim_bidir"])
def test_tiny_workload_traces_pass_every_benchmark_check(name, tmp_path):
    # protocol_sweep holds lag and clag:k=1, highdim_bidir a rand-k AdaCGD
    # built as the benchmark's worker builds it; every trace gets every check.
    wl = workloads.build(name, 3, tmp_path, tiny=True)
    config = experiments.RunConfig(**wl.config_values(tmp_path / "traces"))
    extra = {
        m.label: AdaCGD(tuple(ContractorSpec(kind, k) for kind, k in m.extra_levels), wl.zeta)
        for m in wl.methods
        if m.extra_levels
    }
    result = experiments.run_experiment(config, extra_specs=extra)
    oracle = checks.Oracle(experiments.build_dataset(config)[0].shards, wl.lam)
    entries = {Path(e.trace_path).name: e for e in result.entries}
    assert sorted(entries) == sorted(file for _, _, file in wl.trace_files())
    for method, mult, file in wl.trace_files():
        text = (tmp_path / "traces" / file).read_text()
        fails, rounds = checks.check_trace(text, method, mult, wl, oracle, entries[file].status)
        assert fails == [] and rounds == entries[file].rounds, file
