"""The benchmark's tracer still finds every program name it wraps.

``perfbench/tracer.py`` times layers from outside the program by swapping
module attributes, for instance ``engine._compress_raw`` and
``compressors._top_k_indices``. A renamed function, or a call that no longer
goes through the module global, would silently drop a layer from traced
runs, so these tests check both.
"""

import importlib.util
from pathlib import Path

import numpy as np

from adacgd import compressors, core, datasets, engine, experiments, problems
from adacgd.compressors import AdaCGD, ContractorSpec, EF21
from adacgd.engine import RunSpec, StopRule, run
from adacgd.problems import Problem

PROGRAM = {
    "compressors": compressors,
    "core": core,
    "datasets": datasets,
    "engine": engine,
    "experiments": experiments,
    "problems": problems,
}


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()


def test_every_traced_name_resolves():
    for module_name, attr, *_ in tracer_module.LAYERS:
        target = core.SeededRng if module_name == "core.SeededRng" else PROGRAM[module_name]
        assert callable(getattr(target, attr, None)), f"{module_name}.{attr} is gone"
    assert callable(compressors._contract_support)


def test_traced_run_reaches_the_compression_hooks():
    rounds, n = 5, 3
    problem = Problem.quadratic(np.arange(1.0, 7.0), n_clients=n)
    worker = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(3), ContractorSpec.identity()), 0.5)
    spec = RunSpec(problem, worker, EF21(ContractorSpec.top_k(2)), np.ones(6), 0.05, StopRule(rounds))
    tracer = tracer_module.Tracer()
    with tracer.installed(PROGRAM):
        run(spec)
    metrics = tracer.metrics()
    assert metrics["engine.rounds"] == rounds
    assert metrics["compressors.worker_calls"] == rounds + 1  # one stacked call for all n workers a round, and round 0
    assert metrics["compressors.master_calls"] == rounds
    assert metrics["compressors.topk_calls"] > rounds
    assert metrics["compressors.candidates_per_call"] > 0
    assert metrics["engine.record_s"] > 0
    assert metrics["engine.init_s"] > 0
    # Every round, round 0 too, takes f and the gradients from the batched round oracle.
    assert metrics["problems.loss_calls"] == 0
    assert metrics["problems.gradient_calls"] == 0


# Counted layers that a traced sweep leaves at 0. The engine no longer calls
# the per-client oracle: every round, round 0 too, takes f and the gradients
# from problems._round_oracle, which the tracer does not wrap. The next change
# to the benchmark should wrap engine._round_oracle (ROADMAP item 5) and empty
# this set. Any other layer that reads 0 has lost its hook.
DARK_LAYERS = {"problems.gradient_calls", "problems.loss_calls"}


def test_traced_sweep_reaches_every_counted_layer(tmp_path):
    config = experiments.RunConfig(
        dataset="synthetic:n=40,d=6,seed=2", n_clients=3, methods=("ef21:k=2",), multipliers=(1.0,),
        max_rounds=4, seed=1, out_dir=str(tmp_path),
    )
    rand_ada = AdaCGD((ContractorSpec.rand_k(1), ContractorSpec.top_k(3)), 1.0)
    tracer = tracer_module.Tracer()
    with tracer.installed(PROGRAM):
        experiments.run_experiment(config, extra_specs={"adacgd_rand": rand_ada})
    metrics = tracer.metrics()
    assert {name for name in tracer_module.COUNT_METRICS if metrics[name] == 0} == DARK_LAYERS


def test_traced_sweep_compresses_each_stacked_round_in_one_worker_and_one_master_call(tmp_path):
    # Each method's three multipliers advance as one stack: one engine.step per
    # round, making one worker call for all 3 x 3 workers and one master call
    # for all 3 broadcasts, plus round 0's worker call. Per-run calls would
    # make three times as many.
    rounds = 6
    config = experiments.RunConfig(
        dataset="synthetic:n=40,d=6,seed=2", n_clients=3, methods=("ef21:k=2", "lag"), master="ef21:k=1",
        stepsize="bidirectional", multipliers=(1.0, 2.0, 4.0), max_rounds=rounds, seed=1, out_dir=str(tmp_path),
    )
    tracer = tracer_module.Tracer()
    with tracer.installed(PROGRAM):
        result = experiments.run_experiment(config)
    assert [e.rounds for e in result.entries] == [rounds] * 6
    metrics = tracer.metrics()
    assert metrics["experiments.runs"] == 2
    assert metrics["engine.rounds"] == 2 * rounds
    assert metrics["compressors.worker_calls"] == 2 * (rounds + 1)
    assert metrics["compressors.master_calls"] == 2 * rounds


def test_run_certifies_constants_a_fixed_number_of_times(monkeypatch):
    calls = []
    for cls in (AdaCGD, EF21):
        real = cls.constants
        monkeypatch.setattr(cls, "constants", lambda spec, dim, real=real: calls.append(spec) or real(spec, dim))
    problem = Problem.quadratic(np.arange(1.0, 7.0), n_clients=3)
    worker = AdaCGD((ContractorSpec.top_k(1), ContractorSpec.top_k(3)), 0.5)
    counts = []
    for rounds in (1, 7):
        calls.clear()
        records = run(RunSpec(problem, worker, EF21(ContractorSpec.top_k(2)), np.ones(6), 0.05, StopRule(rounds)))
        assert len(records) == rounds + 1
        counts.append(len(calls))
    assert counts == [2, 2]


def _traced_build(dataset):
    tracer = tracer_module.Tracer()
    with tracer.installed(PROGRAM):
        experiments.build_dataset(experiments.RunConfig(dataset=dataset, n_clients=3))
    return tracer.metrics()


def test_traced_build_dataset_counts_generated_rows():
    metrics = _traced_build("synthetic:n=40,d=5,seed=1")
    assert metrics["datasets.examples"] == 40
    assert metrics["datasets.synthetic_s"] > 0


def test_traced_build_dataset_counts_parsed_rows(tmp_path):
    path = tmp_path / "rows.svm"
    path.write_text("+1 1:0.5 2:1\n-1 2:-1\n# comment\n\n+1 1:2\n-1 1:1 3:4\n+1 3:-0.5\n")
    metrics = _traced_build(str(path))
    assert metrics["datasets.examples"] == 5
    assert metrics["datasets.parse_s"] > 0
    assert metrics["datasets.densify_s"] > 0
