"""Command-line entry points: run, sweep, verify, solve-reference."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    _CONFIG_TYPES,
    RunConfig,
    _parse_kv_options,
    build_dataset,
    load_config,
    load_or_solve_reference,
    parse_config_text,
    reference_cache_path,
    run_experiment,
)
from .verification import SUITES, check_trials, run_suite


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--dataset", help="LIBSVM path, synthetic:..., or quadratic:...")
    parser.add_argument("--n-clients", dest="n_clients")
    parser.add_argument("--lam")
    parser.add_argument("--method", dest="methods", help="space-separated method labels")
    parser.add_argument("--master")
    parser.add_argument("--stepsize", help="convex | nonconvex | pl | bidirectional | manual:<gamma>")
    parser.add_argument("--multipliers", help="stepsize multipliers, e.g. '1 2 4 8'")
    parser.add_argument("--zeta")
    parser.add_argument("--klist", help="adaptive sparsification levels, e.g. '1|5|25'")
    parser.add_argument("--value-bits", dest="value_bits")
    parser.add_argument("--init", dest="init_mode", choices=["full", "compressed"])
    parser.add_argument("--seed")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--stop", help="rounds=<T>[,grad=<tol_sq>][,bits=<budget>]")


_STOP_KEYS = {"rounds": "max_rounds", "grad": "grad_tol_sq", "bits": "bit_budget"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file plus every config field the command's flags set, ``--stop`` included."""
    overrides = {key: value for key, value in vars(args).items() if key in _CONFIG_TYPES and value is not None}
    stop = _parse_kv_options(getattr(args, "stop", None) or "", tuple(_STOP_KEYS))
    overrides.update((_STOP_KEYS[key], value) for key, value in stop.items())
    return load_config(args.config, overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    for entry in result.entries:
        print(
            f"{entry.method} x{entry.multiplier:g}: {entry.status}, "
            f"{entry.rounds} rounds, trace={entry.trace_path}"
        )
    for note in result.notes:
        print(note)
    print(f"summary: {result.summary_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Sweep defaults to the full multiplier grid when neither --multipliers nor
    # the config file sets one; `run` is the same machinery.
    if args.multipliers is None and not (
        args.config and "multipliers" in parse_config_text(Path(args.config).read_text())
    ):
        args.multipliers = "1 2 4 8 16 32 64 128 256"
    return _cmd_run(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    check_trials(args.trials)
    failures = 0
    suites = [args.suite] if args.suite != "all" else sorted(SUITES)
    for suite in suites:
        print(f"== suite: {suite}")
        for result in run_suite(suite, seed=args.seed, trials=args.trials):
            print(result.line())
            if not result.passed:
                failures += 1
    print(f"verify: {failures} failing properties" if failures else "verify: all properties passed")
    return 1 if failures else 0


def _cmd_solve_reference(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    problem, _ = build_dataset(config)
    cache_dir = Path(args.cache_dir) if args.cache_dir else Path(config.out_dir)
    ref = load_or_solve_reference(problem, args.tolerance, cache_dir)
    print(f"f_star = {ref.f_star!r}")
    print(f"grad_norm = {ref.grad_norm!r} after {ref.rounds} rounds")
    print(f"cache: {reference_cache_path(cache_dir, problem)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adacgd",
        description="Communication-efficient distributed gradient descent simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured methods and write traces")
    _add_config_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run methods across the stepsize multiplier grid")
    _add_config_options(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run property verification suites")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=2000)
    p_verify.set_defaults(func=_cmd_verify)

    p_ref = sub.add_parser("solve-reference", help="cache a high-accuracy minimum for a dataset")
    p_ref.add_argument("--config")
    p_ref.add_argument("--dataset")
    p_ref.add_argument("--lam")
    p_ref.add_argument("--n-clients", dest="n_clients")
    p_ref.add_argument("--seed")
    p_ref.add_argument("--tolerance", type=float, default=1e-10)
    p_ref.add_argument("--cache-dir")
    p_ref.set_defaults(func=_cmd_solve_reference)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # bad input or an unreadable file: one line, no traceback
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
