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
from adacgd.engine import RunSpec, StepsizeRule, StopRule, run
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
    spec = RunSpec(problem, worker, EF21(ContractorSpec.top_k(2)), np.ones(6), StepsizeRule.manual(0.05), StopRule(rounds))
    tracer = tracer_module.Tracer()
    with tracer.installed(PROGRAM):
        run(spec)
    metrics = tracer.metrics()
    assert metrics["engine.rounds"] == rounds
    assert metrics["compressors.worker_calls"] == n * rounds
    assert metrics["compressors.master_calls"] == rounds
    assert metrics["compressors.topk_calls"] > rounds
    assert metrics["compressors.candidates_per_call"] > 0
