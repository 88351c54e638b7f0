"""Experiment orchestration: configs, method sweeps, CSV traces, reference minima.

Configs are flat ``key = value`` text files plus command-line overrides.
Each (method, stepsize multiplier) pair produces one CSV trace whose header
comments echo the configuration; a summary file reports the best multiplier
per method by uplink bits needed to reach the gradient tolerance.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import sqnorm
from .compressors import (
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    ThreePCSpec,
    certified_constants,
)
from .datasets import SyntheticSpec, build_problem, make_synthetic, parse_libsvm, to_dense
from .engine import (
    DivergenceError,
    IterationRecord,
    RunSpec,
    StepsizeRule,
    StopRule,
    resolve_stepsize,
    run,
)
from .problems import Problem, full_gradient, loss, smoothness

OUT_DIR_ENV = "ADACGD_OUT_DIR"

TRACE_COLUMNS = (
    "round",
    "f_value",
    "grad_norm_sq",
    "phi",
    "psi",
    "g_error",
    "master_error",
    "uplink_bits_cum",
    "downlink_bits_cum",
    "branch_hist",
)


@dataclass(frozen=True)
class RunConfig:
    """One experiment description: dataset, methods, sweep, stopping."""

    dataset: str
    n_clients: int = 20
    lam: float = 0.1
    methods: tuple[str, ...] = ("gd",)
    master: str = "identity"
    stepsize: str = "nonconvex"
    multipliers: tuple[float, ...] = (1.0,)
    zeta: float = 1.0
    value_bits: int = 64
    init_mode: str = "full"
    max_rounds: int = 2000
    grad_tol_sq: Optional[float] = None
    bit_budget: Optional[int] = None
    seed: int = 0
    out_dir: str = "traces"
    scale_features: bool = False
    x0: str = "default"
    klist: str = ""  # default adaptive levels override, e.g. "1|5|25"

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("config needs at least one method")
        if not self.multipliers:
            raise ValueError("config needs a non-empty multiplier set")
        if not all(m > 0 for m in self.multipliers):
            raise ValueError(f"stepsize multipliers must be positive, got {self.multipliers}")
        if self.value_bits not in (32, 64):
            raise ValueError(f"value_bits must be 32 or 64, got {self.value_bits}")


_CONFIG_KEYS = {
    "dataset": str,
    "n_clients": int,
    "lam": float,
    "methods": "methods",
    "master": str,
    "stepsize": str,
    "multipliers": "floats",
    "zeta": float,
    "value_bits": int,
    "init_mode": str,
    "max_rounds": int,
    "grad_tol_sq": float,
    "bit_budget": int,
    "seed": int,
    "out_dir": str,
    "scale_features": "bool",
    "x0": str,
    "klist": str,
}


def _convert(key: str, value: str):
    kind = _CONFIG_KEYS[key]
    if kind == "methods":
        return tuple(value.split())
    if kind == "floats":
        return tuple(float(v) for v in value.replace(",", " ").split())
    if kind == "bool":
        return value.strip().lower() in ("1", "true", "yes", "on")
    return kind(value)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, value.strip())
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a config from an optional file plus override values."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_text(Path(path).read_text()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _convert(key, value) if isinstance(value, str) else value
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        values["out_dir"] = env_out
    if "dataset" not in values:
        raise ValueError("config needs a dataset (path, synthetic:..., or quadratic:...)")
    return RunConfig(**values)


def default_klist(dim: int) -> tuple[int, ...]:
    """Default adaptive sparsification levels: 1 up to half the features."""
    ks = {1, math.ceil(dim / 100), math.ceil(dim / 10), math.ceil(dim / 2)}
    return tuple(sorted(k for k in ks if 1 <= k <= dim))


def _parse_kv_options(text: str, accepted: tuple[str, ...]) -> dict:
    """``key=value`` pairs separated by commas; a key not in ``accepted`` is an error."""
    opts = {}
    if not text:
        return opts
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value in options, got {part!r}")
        key = key.strip()
        if key not in accepted:
            raise ValueError(f"unknown option {key!r}; accepted: {', '.join(accepted) or 'none'}")
        opts[key] = value.strip()
    return opts


_METHOD_OPTIONS = {
    "gd": (),
    "identity": (),
    "ef21": ("k",),
    "lag": ("zeta",),
    "clag": ("k", "zeta"),
    "adacgd": ("klist", "zeta"),
}


def method_spec(label: str, dim: int, default_zeta: float, klist_override: str = "") -> tuple[str, ThreePCSpec]:
    """Build a worker compressor from a method label like ``clag:k=1,zeta=2``.

    Plain gradient descent is the identity shift rule: exact estimates,
    constants (1, 0). Custom predicate chains are built programmatically and
    passed to :func:`run_experiment` via ``extra_specs``. ``klist_override``
    sets AdaCGD's levels unless the label gives its own ``klist``.
    """
    name, _, opts_text = label.partition(":")
    name = name.strip().lower()
    if name not in _METHOD_OPTIONS:
        raise ValueError(f"unknown method {label!r}")
    opts = _parse_kv_options(opts_text, _METHOD_OPTIONS[name])
    zeta = float(opts.get("zeta", default_zeta))
    k = int(opts.get("k", 1))
    if name == "gd":
        return "gd", EF21(ContractorSpec.identity())
    if name == "identity":
        return "identity", IdentityMaster()
    if name == "ef21":
        return f"ef21_k{k}", EF21(ContractorSpec.top_k(k))
    if name == "lag":
        return f"lag_z{zeta:g}", LAG(zeta)
    if name == "clag":
        return f"clag_k{k}_z{zeta:g}", CLAG(ContractorSpec.top_k(k), zeta)
    if klist_override:
        opts.setdefault("klist", klist_override)
    ks = tuple(int(v) for v in opts["klist"].split("|")) if "klist" in opts else default_klist(dim)
    if list(ks) != sorted(ks):
        raise ValueError(f"adaptive k-list must be sorted ascending, got {ks}")
    if any(k > dim for k in ks):
        raise ValueError(f"adaptive k-list entry exceeds dimension {dim}: {ks}")
    levels = tuple(ContractorSpec.top_k(k) for k in ks)
    return f"adacgd_z{zeta:g}", AdaCGD(levels, zeta)


def _parse_quadratic(text: str) -> Problem:
    opts = _parse_kv_options(text, ("diag", "n"))
    if "diag" not in opts:
        raise ValueError("quadratic dataset needs diag=v1|v2|...")
    diag = np.array([float(v) for v in opts["diag"].split("|")])
    n = int(opts.get("n", 1))
    return Problem.quadratic(diag, n_clients=n)


def _parse_synthetic(text: str) -> SyntheticSpec:
    opts = _parse_kv_options(text, ("n", "d", "seed", "scale", "flip", "cond"))
    return SyntheticSpec(
        n_examples=int(opts.get("n", 1000)),
        dim=int(opts.get("d", 50)),
        seed=int(opts.get("seed", 0)),
        scale=float(opts.get("scale", 1.0)),
        label_flip=float(opts.get("flip", 0.0)),
        cond=float(opts.get("cond", 1.0)),
    )


def build_dataset(config: RunConfig) -> tuple[Problem, str]:
    """Materialize the problem named by ``config.dataset``; returns (problem, hash).

    The hash names the source data only (it is echoed in every trace header);
    reference-minimum cache files are keyed on :func:`problem_digest` instead.
    """
    ds = config.dataset
    if ds.startswith("quadratic:"):
        problem = _parse_quadratic(ds[len("quadratic:") :])
        key = ds
    elif ds.startswith("synthetic:"):
        spec = _parse_synthetic(ds[len("synthetic:") :])
        problem = build_problem(*make_synthetic(spec), config.n_clients, config.lam, config.seed,
                                scale_features=config.scale_features)
        key = spec.key()
    else:
        raw = sys.stdin.buffer.read() if ds == "-" else Path(ds).read_bytes()
        problem = build_problem(*to_dense(*parse_libsvm(raw)), config.n_clients, config.lam, config.seed,
                                scale_features=config.scale_features)
        key = hashlib.sha256(raw).hexdigest()
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return problem, digest


def initial_point(config: RunConfig, problem: Problem) -> np.ndarray:
    if config.x0 == "zeros":
        return np.zeros(problem.dim)
    if config.x0 == "ones":
        return np.ones(problem.dim)
    if config.x0 == "default":
        return np.ones(problem.dim) if problem.kind == "quadratic" else np.zeros(problem.dim)
    return np.full(problem.dim, float(config.x0))


def stepsize_rule(name: str) -> StepsizeRule:
    name = name.strip().lower()
    if name.startswith("manual:"):
        return StepsizeRule.manual(float(name.split(":", 1)[1]))
    table = {
        "convex": StepsizeRule.convex(),
        "nonconvex": StepsizeRule.nonconvex_uni(),
        "pl": StepsizeRule.pl(),
        "bidirectional": StepsizeRule.bidirectional(),
    }
    if name not in table:
        raise ValueError(f"unknown stepsize rule {name!r}")
    return table[name]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def record_to_row(r: IterationRecord) -> str:
    hist = ";".join(str(c) for c in r.branch_histogram)
    fields = [
        str(r.round),
        repr(r.f_value),
        repr(r.grad_norm_sq),
        repr(r.phi),
        repr(r.psi),
        repr(r.g_error),
        repr(r.master_error),
        str(r.uplink_bits),
        str(r.downlink_bits),
        hist,
    ]
    return ",".join(fields)


def row_to_record(line: str) -> IterationRecord:
    parts = line.rstrip("\n").split(",")
    if len(parts) != len(TRACE_COLUMNS):
        raise ValueError(f"trace row has {len(parts)} fields, expected {len(TRACE_COLUMNS)}")
    hist = tuple(int(c) for c in parts[9].split(";")) if parts[9] else ()
    return IterationRecord(
        round=int(parts[0]),
        f_value=float(parts[1]),
        grad_norm_sq=float(parts[2]),
        phi=float(parts[3]),
        psi=float(parts[4]),
        g_error=float(parts[5]),
        master_error=float(parts[6]),
        uplink_bits=int(parts[7]),
        downlink_bits=int(parts[8]),
        branch_histogram=hist,
    )


def write_trace(path: Path, records: Sequence[IterationRecord], meta: dict) -> None:
    lines = [f"# {key} = {_fmt(value)}" for key, value in meta.items()]
    lines.append(",".join(TRACE_COLUMNS))
    lines.extend(record_to_row(r) for r in records)
    path.write_text("\n".join(lines) + "\n")


def read_trace(path: Path) -> tuple[dict, list[IterationRecord]]:
    meta: dict = {}
    records: list[IterationRecord] = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            continue
        if not line.strip():
            continue
        if not header_seen:
            if line.strip() != ",".join(TRACE_COLUMNS):
                raise ValueError(f"unexpected trace header {line!r}")
            header_seen = True
            continue
        records.append(row_to_record(line))
    return meta, records


STATUS_REACHED = "reached"
STATUS_UNREACHED = "unreached"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class SweepEntry:
    method: str
    multiplier: float
    gamma: float
    status: str
    rounds: int
    uplink_bits_to_tol: Optional[int]
    downlink_bits_to_tol: Optional[int]
    final_grad_norm_sq: float
    trace_path: str


@dataclass(frozen=True)
class ExperimentResult:
    entries: tuple[SweepEntry, ...]
    best: dict
    summary_path: str
    notes: tuple[str, ...] = ()


def _bits_to_tolerance(records: Sequence[IterationRecord], tol: Optional[float]) -> Optional[tuple[int, int]]:
    if tol is None:
        return None
    for r in records:
        if r.grad_norm_sq <= tol:
            return r.uplink_bits, r.downlink_bits
    return None


def run_experiment(config: RunConfig, extra_specs: Optional[dict[str, ThreePCSpec]] = None) -> ExperimentResult:
    """Run every (method x multiplier) pair and write traces plus a summary.

    ``extra_specs`` maps extra method labels to pre-built worker compressors
    (for predicate chains the flat config format cannot express). Outputs are
    byte-deterministic given the config.
    """
    problem, dataset_hash = build_dataset(config)
    x0 = initial_point(config, problem)
    base_rule = stepsize_rule(config.stepsize)
    _, master = method_spec(config.master, problem.dim, config.zeta)

    labelled: list[tuple[str, ThreePCSpec]] = [
        method_spec(m, problem.dim, config.zeta, config.klist) for m in config.methods
    ]
    for label, spec in (extra_specs or {}).items():
        labelled.append((label, spec))
    runs: dict[str, tuple[str, ThreePCSpec, float]] = {}
    for label, worker in labelled:
        for mult in config.multipliers:
            name = f"{label}_x{mult:g}.csv"
            if name in runs:
                first_label, _, first_mult = runs[name]
                raise ValueError(
                    f"runs ({first_label}, x{first_mult!r}) and ({label}, x{mult!r}) would share the trace file {name}"
                )
            runs[name] = (label, worker, mult)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[SweepEntry] = []
    for name, (label, worker, mult) in runs.items():
        rule = base_rule if mult == 1.0 else StepsizeRule.multiplied(base_rule, mult)
        spec = RunSpec(
            problem=problem,
            worker_spec=worker,
            master_spec=master,
            x0=x0,
            stepsize=rule,
            stop=StopRule(config.max_rounds, config.grad_tol_sq, config.bit_budget),
            seed=config.seed,
            value_bits=config.value_bits,
            init_mode=config.init_mode,
        )
        gamma = resolve_stepsize(spec)
        status = STATUS_UNREACHED
        try:
            records = run(spec)
            reached = _bits_to_tolerance(records, config.grad_tol_sq)
            if reached is not None:
                status = STATUS_REACHED
        except DivergenceError as err:
            records = err.records
            reached = None
            status = STATUS_DIVERGED
        trace_path = out_dir / name
        meta = {
            "dataset": config.dataset,
            "dataset_hash": dataset_hash,
            "method": label,
            "multiplier": mult,
            "gamma": gamma,
            "stepsize_rule": config.stepsize,
            "n_clients": problem.n_clients,
            "lam": problem.lam,
            "seed": config.seed,
            "value_bits": config.value_bits,
            "init_mode": config.init_mode,
            "worker_constants": certified_constants(worker, problem.dim),
            "master_constants": certified_constants(master, problem.dim),
            "status": status,
        }
        write_trace(trace_path, records, meta)
        entries.append(
            SweepEntry(
                method=label,
                multiplier=mult,
                gamma=gamma,
                status=status,
                rounds=records[-1].round if records else 0,
                uplink_bits_to_tol=reached[0] if reached else None,
                downlink_bits_to_tol=reached[1] if reached else None,
                final_grad_norm_sq=records[-1].grad_norm_sq if records else math.inf,
                trace_path=str(trace_path),
            )
        )

    best: dict = {}
    for entry in entries:
        if entry.status != STATUS_REACHED:
            continue
        cur = best.get(entry.method)
        if cur is None or entry.uplink_bits_to_tol < cur.uplink_bits_to_tol:
            best[entry.method] = entry

    notes = []
    ada_best = next((best[m] for m in best if m.startswith("adacgd")), None)
    lag_best = next((best[m] for m in best if m.startswith("lag")), None)
    if ada_best is not None and lag_best is not None:
        if ada_best.uplink_bits_to_tol <= lag_best.uplink_bits_to_tol:
            notes.append("adacgd_vs_lag = ok")
        else:
            notes.append("adacgd_vs_lag = INVERTED (adaptive rule needed more uplink bits than lazy aggregation)")

    summary_path = out_dir / "summary.csv"
    lines = [f"# dataset = {config.dataset}", f"# dataset_hash = {dataset_hash}",
             f"# grad_tol_sq = {_fmt(config.grad_tol_sq)}"]
    lines += [f"# {note}" for note in notes]
    lines.append("method,multiplier,gamma,status,rounds,uplink_bits_to_tol,downlink_bits_to_tol,final_grad_norm_sq,best")
    for entry in entries:
        is_best = best.get(entry.method) is entry
        lines.append(
            ",".join(
                [
                    entry.method,
                    f"{entry.multiplier:g}",
                    repr(entry.gamma),
                    entry.status,
                    str(entry.rounds),
                    str(entry.uplink_bits_to_tol) if entry.uplink_bits_to_tol is not None else "",
                    str(entry.downlink_bits_to_tol) if entry.downlink_bits_to_tol is not None else "",
                    repr(entry.final_grad_norm_sq),
                    "best" if is_best else "",
                ]
            )
        )
    summary_path.write_text("\n".join(lines) + "\n")
    return ExperimentResult(tuple(entries), best, str(summary_path), tuple(notes))


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    rounds: int
    tolerance: float


def solve_reference(problem: Problem, tolerance: float, max_rounds: int = 10**6) -> ReferenceSolution:
    """Plain gradient descent at 1/l_minus until the gradient norm is tiny.

    Quadratics are solved exactly at the origin. If the iteration cap is hit
    a warning is issued and the achieved tolerance is reported instead.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if problem.kind == "quadratic":
        x = np.zeros(problem.dim)
        return ReferenceSolution(x, 0.0, 0.0, 0, tolerance)
    gamma = 1.0 / smoothness(problem).l_minus
    x = np.zeros(problem.dim)
    rounds = 0
    grad = full_gradient(problem, x)
    norm = math.sqrt(sqnorm(grad))
    while norm > tolerance and rounds < max_rounds:
        x = x - gamma * grad
        grad = full_gradient(problem, x)
        norm = math.sqrt(sqnorm(grad))
        rounds += 1
    if norm > tolerance:
        warnings.warn(
            f"reference solve stopped at the {max_rounds}-round cap with gradient norm {norm:.3e}",
            RuntimeWarning,
        )
    return ReferenceSolution(x, loss(problem, x), norm, rounds, norm if norm > tolerance else tolerance)


def problem_digest(problem: Problem) -> str:
    """Digest of everything the objective depends on.

    Covers the kind, lam, and every shard's features and labels in client
    order (so feature scaling and the partition count), or the quadratic
    diagonal.
    """
    h = hashlib.sha256(f"{problem.kind}|{float(problem.lam)!r}".encode())
    if problem.kind == "quadratic":
        arrays = [problem.diagonal]
    else:
        arrays = [a for shard in problem.shards for a in (shard.features, shard.labels)]
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def reference_cache_path(cache_dir: Path, problem: Problem) -> Path:
    return Path(cache_dir) / f"ref_{problem_digest(problem)}.txt"


def save_reference(path: Path, problem: Problem, ref: ReferenceSolution) -> None:
    lines = [
        "# reference minimum cache",
        f"lam = {float(problem.lam)!r}",
        f"tolerance = {float(ref.tolerance)!r}",
        f"grad_norm = {float(ref.grad_norm)!r}",
        f"rounds = {ref.rounds}",
        f"f_star = {float(ref.f_star)!r}",
        "x_star = " + " ".join(repr(float(v)) for v in ref.x_star),
    ]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def load_reference(path: Path) -> tuple[float, ReferenceSolution]:
    values: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    x_star = np.array([float(v) for v in values["x_star"].split()])
    ref = ReferenceSolution(
        x_star=x_star,
        f_star=float(values["f_star"]),
        grad_norm=float(values["grad_norm"]),
        rounds=int(values["rounds"]),
        tolerance=float(values["tolerance"]),
    )
    return float(values["lam"]), ref


def load_or_solve_reference(
    problem: Problem,
    tolerance: float,
    cache_dir: Path,
    max_rounds: int = 10**6,
) -> ReferenceSolution:
    """Reuse a cached minimizer of this exact problem; otherwise solve and cache.

    The cache file is named by :func:`problem_digest`. A cached solve is
    reused only when its tolerance is at least as tight as ``tolerance``.
    """
    path = reference_cache_path(cache_dir, problem)
    if path.exists():
        _, ref = load_reference(path)
        if ref.tolerance <= tolerance:
            return ref
    ref = solve_reference(problem, tolerance, max_rounds)
    save_reference(path, problem, ref)
    return ref
