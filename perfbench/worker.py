"""One measuring process of the benchmark: repeated sweeps of one workload.

Started by ``run.py`` with the BLAS thread count and the hash seed already in
its environment. It times set-up on its own, then runs whole sweeps through
``experiments.run_experiment`` until its time budget would be exceeded, checks
the traces, and prints one JSON line with its samples.

Checks: the first sweep's traces get every check in ``checks.py``; each later
sweep must write byte-identical traces (sha256), which carries those results
over. In traced mode, untraced and traced sweeps alternate. Each timed sample
is reported raw together with its machine-speed factors (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from adacgd import compressors, core, datasets, engine, experiments, problems  # noqa: E402

import checks  # noqa: E402
from calibrate import Calibrated  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PROGRAM = {
    "experiments": experiments,
    "datasets": datasets,
    "engine": engine,
    "problems": problems,
    "compressors": compressors,
    "core": core,
}


class BuildTimer:
    """Times the set-up call inside one sweep and keeps the problem it built.

    The only instrument in an untraced sweep: one clock pair around
    ``experiments.build_dataset``, so set-up can be taken out of rounds/s.
    """

    def __init__(self):
        self.seconds = 0.0
        self.problem = None

    def __enter__(self):
        original = self._original = experiments.build_dataset

        def timed(config):
            t0 = time.perf_counter()
            result = original(config)
            self.seconds += time.perf_counter() - t0
            self.problem = result[0]
            return result

        experiments.build_dataset = timed
        return self

    def __exit__(self, *exc):
        experiments.build_dataset = self._original
        return False


def extra_specs(wl: workloads.Workload) -> dict:
    specs = {}
    for m in wl.methods:
        if m.extra_levels:
            levels = tuple(compressors.ContractorSpec(kind, k) for kind, k in m.extra_levels)
            specs[m.label] = compressors.AdaCGD(levels, wl.zeta)
    return specs


class Sweeper:
    """Runs and checks sweeps of one workload, accumulating samples."""

    def __init__(self, wl: workloads.Workload, out_dir: Path):
        self.wl = wl
        self.out_dir = out_dir
        self.config = experiments.RunConfig(**wl.config_values(out_dir))
        self.extra = extra_specs(wl)
        self.reference: dict[str, tuple[str, int]] = {}  # file -> (sha256, rounds) of the checked sweep
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def time_setup(self) -> float:
        t0 = time.perf_counter()
        problem, _ = experiments.build_dataset(self.config)
        seconds = time.perf_counter() - t0
        del problem
        return seconds

    def sweep(self, tracer: Tracer | None = None) -> dict:
        """One timed sweep, checked; returns its wall time, set-up time and rounds."""
        timer = BuildTimer()
        try:
            if tracer is None:
                with timer:
                    t0 = time.perf_counter()
                    result = experiments.run_experiment(self.config, extra_specs=self.extra)
                    wall = time.perf_counter() - t0
            else:
                tracer.reset_totals()
                with tracer.installed(PROGRAM):
                    t0 = time.perf_counter()
                    result = experiments.run_experiment(self.config, extra_specs=self.extra)
                    wall = time.perf_counter() - t0
        except Exception as err:  # a sweep that raises fails all of its operations
            self.attempted += self.wl.ops_per_sweep
            self.failed += self.wl.ops_per_sweep
            self.failures.append(f"sweep raised {type(err).__name__}: {err}")
            return {}
        rounds = self._check(result, timer.problem)
        return {"wall_s": wall, "build_s": timer.seconds, "rounds": rounds}

    def _check(self, result, problem) -> int:
        wl = self.wl
        expected = wl.trace_files()
        entries = {Path(e.trace_path).name: e for e in result.entries}
        full = not self.reference and problem is not None
        oracle = checks.Oracle(problem.shards, wl.lam) if full else None
        rounds = 0
        for method, mult, name in expected:
            self.attempted += 1
            fails = []
            path = self.out_dir / name
            entry = entries.get(name)
            if entry is None or not path.is_file():
                fails.append("trace missing")
            else:
                digest = checks.sha256(path)
                if full:
                    fails, trace_rounds = checks.check_trace(path.read_text(), method, mult, wl, oracle, entry.status)
                    self.reference[name] = (digest, trace_rounds)
                else:
                    ref_digest, trace_rounds = self.reference.get(name, ("", 0))
                    if digest != ref_digest:
                        fails.append("trace bytes differ from the first sweep")
                if entry.rounds != trace_rounds:
                    fails.append(f"sweep result reports {entry.rounds} rounds, the trace {trace_rounds}")
                rounds += trace_rounds
            for f in fails:
                self.failures.append(f"{name}: {f}")
        if len(result.entries) != len(expected):
            self.failures.append(f"sweep ran {len(result.entries)} runs, expected {len(expected)}")
        return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of measuring in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for traces and spans")
    parser.add_argument("--data", required=True, help="directory holding the workload's input file")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    out = Path(args.out)
    wl = workloads.build(args.workload, args.seed, Path(args.data), tiny=args.tiny)
    sweeper = Sweeper(wl, out / "traces")
    report = run(sweeper, start, args.budget, bool(args.trace), out)
    report["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "unset"),
        "nproc": os.cpu_count(),
    }
    print(json.dumps(report))
    return 0


def run(sweeper: Sweeper, start: float, budget: float, traced: bool, out: Path) -> dict:
    """Set-up samples, then sweeps until the next one would overrun the budget.

    Every timed sample carries the speed factors of the calibration passes
    around it (see calibrate.py).
    """
    wl = sweeper.wl
    speed = Calibrated(wl.calibration_parts)
    setup = []
    for _ in range(wl.setup_reps):
        seconds = sweeper.time_setup()
        speed.advance()
        setup.append([seconds, speed.factor(wl.setup_parts)])
    sweeps, traced_sweeps, layers = [], [], []
    tracer = Tracer() if traced else None
    longest = 0.0
    while True:
        use_tracer = traced and len(sweeps) > len(traced_sweeps)
        t0 = time.perf_counter()
        sample = sweeper.sweep(tracer if use_tracer else None)
        if sample:
            speed.advance()
            sample["setup_factor"] = speed.factor(wl.setup_parts)
            sample["round_factor"] = speed.factor(wl.round_parts)
            if use_tracer:
                traced_sweeps.append(sample)
                layers.append(tracer.metrics(sample["setup_factor"], sample["round_factor"]))
            else:
                sweeps.append(sample)
                setup.append([sample["build_s"], sample["setup_factor"]])
        if not sample:
            break
        longest = max(longest, time.perf_counter() - t0)
        done = sweeps and (traced_sweeps or not traced)
        if done and time.perf_counter() - start + longest > budget:
            break
    report = {
        "setup_s": setup,
        "sweeps": sweeps,
        "traced_sweeps": traced_sweeps,
        "layers": layers,
        "hashes": {name: digest for name, (digest, _) in sweeper.reference.items()},
        "attempted": sweeper.attempted,
        "failed": sweeper.failed,
        "failures": sweeper.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write_spans(out / f"spans_{os.environ.get('PYTHONHASHSEED', 'unset')}.csv")
    return report


def _blas_version() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
