"""Sweep benchmark for the adacgd simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ``src``.
The measured load is one process at a time with one BLAS thread: the budget
is split between two worker processes run one after the other under
PYTHONHASHSEED 1 and 2, and every trace must have the same sha256 in both.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEEDS = ("1", "2")
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 80

# Pin BLAS threads before NumPy is imported here or in a worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path.insert(0, str(HERE))


def _scaled_wall(s: dict) -> float:
    return s["build_s"] * s["setup_factor"] + (s["wall_s"] - s["build_s"]) * s["round_factor"]


def median_metrics(reports: list[dict]) -> dict:
    """End-to-end metrics from the untraced sweeps of all workers, at reference machine speed."""
    sweeps = [s for r in reports for s in r["sweeps"]]
    setup = [seconds * factor for r in reports for seconds, factor in r["setup_s"]]
    rates = [s["rounds"] / ((s["wall_s"] - s["build_s"]) * s["round_factor"]) for s in sweeps]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(_scaled_wall(s) for s in sweeps), "unit": "s"},
        "rounds_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"},
    }


def layer_metrics(reports: list[dict]) -> dict:
    """Per-layer medians over the traced sweeps, plus the tracing overhead."""
    layers = [layer for r in reports for layer in r["layers"]]
    metrics = {}
    for name in sorted(layers[0]):
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("per_call") else "count"
        if name == "experiments.trace_bytes":
            unit = "B"
        metrics[name] = {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
    # A traced sweep's set-up time is not split out, so both sides use the round factor.
    traced = statistics.median(s["wall_s"] * s["round_factor"] for r in reports for s in r["traced_sweeps"])
    untraced = statistics.median(s["wall_s"] * s["round_factor"] for r in reports for s in r["sweeps"])
    metrics["tracing.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    return metrics


def raw_summary(reports: list[dict]) -> str:
    """Unscaled medians and the median speed factors, for the info line."""
    sweeps = [s for r in reports for s in r["sweeps"]]
    setup = [seconds for r in reports for seconds, _ in r["setup_s"]]
    return (f"raw_wall_s={statistics.median(s['wall_s'] for s in sweeps):.4f}"
            f" raw_setup_s={statistics.median(setup):.4f}"
            f" setup_factor={statistics.median(s['setup_factor'] for s in sweeps):.4f}"
            f" round_factor={statistics.median(s['round_factor'] for s in sweeps):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adacgd" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'adacgd'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workloads.build(args.workload, args.seed, out, tiny=args.tiny).write_inputs()

    reports = []
    for hash_seed in HASH_SEEDS:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", repr(args.seconds / len(HASH_SEEDS)), "--trace", str(args.trace),
            "--out", str(out / f"hash{hash_seed}"), "--data", str(out),
        ] + (["--tiny"] if args.tiny else [])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"perfbench: worker under PYTHONHASHSEED={hash_seed} exited with {proc.returncode}", file=sys.stderr)
            return 1
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    failures = [f for r in reports for f in r["failures"]]
    if reports[0]["hashes"] != reports[1]["hashes"]:
        failures.append("trace sha256 differs between PYTHONHASHSEED values")
    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    if not all(r["sweeps"] for r in reports):
        print("perfbench: a worker finished no sweep, so there is nothing to time", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(reports)
        traced_wall = statistics.median(s["wall_s"] * s["round_factor"] for r in reports for s in r["traced_sweeps"])
        (out / "layers.json").write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": reports[0]["env"],
                                                     "traced_sweep_wall_s": traced_wall, "metrics": metrics}, indent=1))
    else:
        metrics = median_metrics(reports)
    env = reports[0]["env"]
    print(
        f"# perfbench {args.workload} seed={args.seed} sweeps={sum(len(r['sweeps']) for r in reports)}"
        f" traced_sweeps={sum(len(r['traced_sweeps']) for r in reports)} python={env['python']}"
        f" numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} blas_threads={env['blas_threads']}"
        f" nproc={env['nproc']} hash_seeds={','.join(r['env']['hash_seed'] for r in reports)} {raw_summary(reports)}"
    )
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
