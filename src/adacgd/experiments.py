"""Experiment orchestration: configs, method sweeps, CSV traces, reference minima.

Configs are flat ``key = value`` text files plus command-line overrides.
Each (method, stepsize multiplier) pair produces one CSV trace whose header
comments echo the configuration; a summary file reports the best multiplier
per method by uplink bits needed to reach the gradient tolerance.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
import warnings
from dataclasses import dataclass, fields
from itertools import groupby
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import SeededRng, ThreePCConstants, mean_ascending, sqnorm
from .compressors import (
    AdaCGD,
    CLAG,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    ThreePCSpec,
    _check_zeta,
)
from .datasets import SyntheticSpec, build_libsvm_problem, build_problem, make_synthetic, parse_libsvm
from .engine import (
    DivergenceError,
    IterationRecord,
    STEPSIZE_RULES,
    RunSpec,
    StopRule,
    VALUE_BITS,
    _check_init_mode,
    run,
    theoretical_stepsize,
)
from .problems import QUADRATIC, Problem, _check_lam, _round_oracle, smoothness

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
    init_mode: str = "full"
    max_rounds: int = 2000
    grad_tol_sq: Optional[float] = None
    bit_budget: Optional[int] = None
    seed: int = 0
    out_dir: str = "traces"
    scale_features: bool = False
    x0: str = "default"

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("config needs at least one method")
        if self.n_clients < 1:
            raise ValueError(f"need at least one client, got n_clients={self.n_clients}")
        SeededRng(self.seed)  # rejects a seed that is not an integer in 0..2**64 - 1
        if not self.multipliers:
            raise ValueError("config needs a non-empty multiplier set")
        if not all(math.isfinite(m) and m > 0 for m in self.multipliers):
            raise ValueError(f"stepsize multipliers must be positive and finite, got {self.multipliers}")
        _manual_gamma(self.stepsize)
        _x0_fill(self.x0)
        _check_lam(self.lam)
        _check_zeta(self.zeta)
        _check_init_mode(self.init_mode)
        # Labels are parsed here, so a bad one fails before any data is read; the checks
        # that need the dimension (k or a level above d) wait for the dataset.
        for label in self.methods:
            _method_options(label, self.zeta)
        _method_options(self.master, self.zeta)
        # The stop rule checks its own inputs; building it here rejects them before any data is read.
        StopRule(self.max_rounds, self.grad_tol_sq, self.bit_budget)


def _bool(text: str) -> bool:
    """1/true/yes/on or 0/false/no/off, in any case; anything else is a ValueError."""
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# How a value's text is read, keyed by the annotation of the field it fills. Tuples
# are ';'-joined as _fmt writes them, except the hand-written labels and multipliers.
_READERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _bool,
    "Optional[int]": int,
    "Optional[float]": float,
    "tuple[str, ...]": lambda v: tuple(v.split()),
    "tuple[float, ...]": lambda v: tuple(float(x) for x in v.replace(",", " ").split()),
    "tuple[int, ...]": lambda v: tuple(int(x) for x in v.split(";")) if v else (),
    "np.ndarray": lambda v: np.array([float(x) for x in v.split()]),
}

_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse(key: str, value, kind):
    """``kind(value)``; a value that does not parse raises a ValueError naming ``key``."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"cannot parse {key}={value!r}") from None


def _convert(key: str, value: str):
    return _parse(key, value, _READERS[_CONFIG_TYPES[key]])


def _key_values(text: str, source: str):
    """(where, key, value) of each ``key = value`` line; '#' starts a comment, blanks are skipped.

    ``where`` is ``"<source> line N"``; a line with no '=' or a key set twice raises a ValueError naming its lines.
    """
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"{source} lines {first_line[key]} and {lineno}: key {key!r} is given twice")
        first_line[key] = lineno
        yield f"{source} line {lineno}", key, value.strip()


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines whose keys are :class:`RunConfig` fields."""
    values = {}
    for where, key, value in _key_values(text, "config"):
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _convert(key, value)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a config from an optional file plus override values."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_text(Path(path).read_text()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _convert(key, value) if isinstance(value, str) else value
    if "dataset" not in values:
        raise ValueError("config needs a dataset (path, synthetic:..., or quadratic:...)")
    return RunConfig(**values)


def default_klist(dim: int) -> tuple[int, ...]:
    """Default adaptive sparsification levels: 1 up to half the features."""
    ks = {1, math.ceil(dim / 100), math.ceil(dim / 10), math.ceil(dim / 2)}
    return tuple(sorted(k for k in ks if 1 <= k <= dim))


def _parse_kv_options(text: str, accepted: tuple[str, ...]) -> dict:
    """``key=value`` pairs separated by commas; a key not in ``accepted`` or given twice is an error."""
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
        if key in opts:
            raise ValueError(f"option {key!r} is given twice in {text!r}")
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


def _parse_klist(text: str) -> Optional[tuple[int, ...]]:
    """Adaptive levels like ``1|5|25``, checked strictly ascending; None for empty text (the default levels)."""
    if not text:
        return None
    ks = _parse("klist", text, lambda v: tuple(int(x) for x in v.split("|")))
    if list(ks) != sorted(ks):
        raise ValueError(f"adaptive k-list must be sorted ascending, got {ks}")
    repeated = [a for a, b in zip(ks, ks[1:]) if a == b]
    if repeated:
        raise ValueError(f"adaptive k-list repeats level {repeated[0]}, got {ks}")
    ContractorSpec.top_k(ks[0])  # the smallest level must be a positive k
    return ks


def _method_options(label: str, default_zeta: float):
    """(name, k, zeta, klist) of a method label: every check that does not need the dimension.

    ``klist`` is None for a method without levels or for AdaCGD's default levels.
    """
    name, _, opts_text = label.partition(":")
    name = name.strip().lower()
    if name not in _METHOD_OPTIONS:
        raise ValueError(f"unknown method {label!r}")
    opts = _parse_kv_options(opts_text, _METHOD_OPTIONS[name])
    zeta = _parse("zeta", opts.get("zeta", default_zeta), float)
    k = _parse("k", opts.get("k", 1), int)
    ks = _parse_klist(opts.get("klist", "")) if name == "adacgd" else None
    # The specs' own range checks, made here so a bad value fails before any data is read.
    _check_zeta(zeta)
    ContractorSpec.top_k(k)
    return name, k, zeta, ks


def method_spec(label: str, dim: int, default_zeta: float) -> tuple[str, ThreePCSpec]:
    """Build a worker compressor from a method label like ``clag:k=1,zeta=2``.

    Plain gradient descent is the identity shift rule: exact estimates,
    constants (1, 0). A rule no label names is built in code and passed to
    :func:`run_experiment` via ``extra_specs``.
    """
    name, k, zeta, ks = _method_options(label, default_zeta)
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
    ks = ks or default_klist(dim)
    if any(k > dim for k in ks):
        raise ValueError(f"adaptive k-list entry exceeds dimension {dim}: {ks}")
    levels = tuple(ContractorSpec.top_k(k) for k in ks)
    return f"adacgd_z{zeta:g}", AdaCGD(levels, zeta)


def _parse_quadratic(text: str) -> Problem:
    opts = _parse_kv_options(text, ("diag", "n"))
    if "diag" not in opts:
        raise ValueError("quadratic dataset needs diag=v1|v2|...")
    diag = _parse("diag", opts["diag"], lambda v: np.array([float(x) for x in v.split("|")]))
    n = _parse("n", opts.get("n", 1), int)
    return Problem.quadratic(diag, n_clients=n)


def _parse_synthetic(text: str) -> SyntheticSpec:
    opts = _parse_kv_options(text, ("n", "d", "seed", "scale", "flip", "cond"))
    return SyntheticSpec(
        n_examples=_parse("n", opts.get("n", 1000), int),
        dim=_parse("d", opts.get("d", 50), int),
        seed=_parse("seed", opts.get("seed", 0), int),
        scale=_parse("scale", opts.get("scale", 1.0), float),
        label_flip=_parse("flip", opts.get("flip", 0.0), float),
        cond=_parse("cond", opts.get("cond", 1.0), float),
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
                                scale_features=config.scale_features, copy=False)
        key = spec.key()
    else:
        raw = sys.stdin.buffer.read() if ds == "-" else Path(ds).read_bytes()
        problem = build_libsvm_problem(*parse_libsvm(raw), config.n_clients, config.lam, config.seed,
                                       scale_features=config.scale_features)
        key = hashlib.sha256(raw).hexdigest()
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return problem, digest


def initial_point(config: RunConfig, problem: Problem) -> np.ndarray:
    fill = _x0_fill(config.x0)
    if fill is None:  # default: ones on a quadratic, else zeros
        fill = 1.0 if problem.kind == QUADRATIC else 0.0
    return np.full(problem.dim, fill)


_NAMED_X0 = {"default": None, "zeros": 0.0, "ones": 1.0}


def _x0_fill(x0: str) -> Optional[float]:
    """The value ``x0`` fills every coordinate with, None for default; rejects anything else, naming x0."""
    if x0 in _NAMED_X0:
        return _NAMED_X0[x0]
    value = _parse("x0", x0, float)
    if not math.isfinite(value):
        raise ValueError(f"x0 must be default, zeros, ones or a finite number, got {x0!r}")
    return value


def _manual_gamma(stepsize: str) -> Optional[float]:
    """The gamma of a ``manual:<gamma>`` stepsize, or None for a theory rule name.

    Raises ValueError for an unknown name or a gamma that is not finite and positive.
    """
    name = stepsize.strip().lower()
    if not name.startswith("manual:"):
        if name not in STEPSIZE_RULES:
            choices = ", ".join(STEPSIZE_RULES)
            raise ValueError(f"unknown stepsize rule {stepsize!r}; choose from {choices} or manual:<gamma>")
        return None
    gamma = _parse("stepsize", name[len("manual:") :], float)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"manual stepsize must be positive and finite, got {gamma}")
    return gamma


def _fmt(value) -> str:
    """One written value: floats by repr, tuples ';'-joined, anything else by str."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ";".join(map(_fmt, value))
    return str(value)


# A trace row is IterationRecord's fields in order; TRACE_COLUMNS names them in the file.
_ROW_READERS = tuple(_READERS[f.type] for f in fields(IterationRecord))
_row_values = operator.attrgetter(*(f.name for f in fields(IterationRecord)))


def record_to_row(r: IterationRecord) -> str:
    return ",".join(map(_fmt, _row_values(r)))


def row_to_record(line: str) -> IterationRecord:
    parts = line.rstrip("\n").split(",")
    if len(parts) != len(_ROW_READERS):
        raise ValueError(f"trace row has {len(parts)} fields, expected {len(_ROW_READERS)}")
    return IterationRecord(*[read(part) for read, part in zip(_ROW_READERS, parts)])


def write_trace(path: Path, records: Sequence[IterationRecord], meta: dict) -> None:
    lines = [f"# {key} = {_fmt(value)}" for key, value in meta.items()]
    lines.append(",".join(TRACE_COLUMNS))
    lines.extend(record_to_row(r) for r in records)
    path.write_text("\n".join(lines) + "\n")


def read_trace(path: Path) -> tuple[dict, list[IterationRecord]]:
    lines = Path(path).read_text().splitlines()
    meta = dict((key.strip(), value.strip()) for key, _, value in
                (line[1:].partition("=") for line in lines if line.startswith("#")))
    rows = [line for line in lines if line.strip() and not line.startswith("#")]
    if rows and rows[0].strip() != ",".join(TRACE_COLUMNS):
        raise ValueError(f"unexpected trace header {rows[0]!r}")
    return meta, [row_to_record(line) for line in rows[1:]]


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
    """Bits spent when the run reached ``tol``: run stops at the first record within it, so only the last can be."""
    last = records[-1]
    if tol is None or not last.grad_norm_sq <= tol:
        return None
    return last.uplink_bits, last.downlink_bits


def run_experiment(config: RunConfig, extra_specs: Optional[dict[str, ThreePCSpec]] = None) -> ExperimentResult:
    """Run every (method x multiplier) pair and write traces plus a summary.

    ``extra_specs`` maps extra method labels to pre-built worker compressors
    (for rules the flat config format cannot express, such as rand-k AdaCGD
    levels). Outputs are byte-deterministic given the config.
    """
    problem, dataset_hash = build_dataset(config)
    x0 = initial_point(config, problem)
    _, master = method_spec(config.master, problem.dim, config.zeta)
    master_c = master.constants(problem.dim)
    rule = config.stepsize.strip().lower()
    manual = _manual_gamma(config.stepsize)

    labelled: list[tuple[str, ThreePCSpec]] = [method_spec(m, problem.dim, config.zeta) for m in config.methods]
    for label, spec in (extra_specs or {}).items():
        labelled.append((label, spec))
    stop = StopRule(config.max_rounds, config.grad_tol_sq, config.bit_budget)
    # One smoothness pass per sweep, and none for a manual stepsize.
    sc = smoothness(problem) if manual is None else None
    # Every run is specified before the first one starts, so a bad input fails before any trace is written.
    runs: dict[str, tuple[str, float, ThreePCConstants, RunSpec]] = {}
    for label, worker in labelled:
        worker_c = worker.constants(problem.dim)
        # The theory stepsize depends on the method, not on the multiplier.
        base = manual if manual is not None else theoretical_stepsize(rule, sc, worker_c, master_c)
        for mult in config.multipliers:
            name = f"{label}_x{mult:g}.csv"
            if name in runs:
                first_label, first_mult, _, _ = runs[name]
                raise ValueError(
                    f"runs ({first_label}, x{first_mult!r}) and ({label}, x{mult!r}) would share the trace file {name}"
                )
            spec = RunSpec(problem, worker, master, x0, mult * base, stop, config.seed, config.init_mode)
            runs[name] = (label, mult, worker_c, spec)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[SweepEntry] = []
    # Labels are unique (two equal ones would share trace files), so each method's runs are adjacent.
    for _, stack in groupby(runs.items(), key=lambda item: item[1][0]):
        stack = list(stack)
        # A method's multipliers advance as one stack; each trace has the bytes of its run alone.
        outcomes = run([spec for _, (_, _, _, spec) in stack])
        for (name, (label, mult, worker_c, spec)), outcome in zip(stack, outcomes):
            status = STATUS_UNREACHED
            if isinstance(outcome, DivergenceError):
                records = outcome.records
                reached = None
                status = STATUS_DIVERGED
            else:
                records = outcome
                reached = _bits_to_tolerance(records, config.grad_tol_sq)
                if reached is not None:
                    status = STATUS_REACHED
            trace_path = out_dir / name
            meta = {
                "dataset": config.dataset,
                "dataset_hash": dataset_hash,
                "method": label,
                "multiplier": mult,
                "gamma": spec.gamma,
                "stepsize_rule": config.stepsize,
                "n_clients": problem.n_clients,
                "lam": problem.lam,
                "seed": config.seed,
                "value_bits": VALUE_BITS,
                "init_mode": config.init_mode,
                "worker_constants": worker_c,
                "master_constants": master_c,
                "status": status,
            }
            write_trace(trace_path, records, meta)
            entries.append(
                SweepEntry(
                    method=label,
                    multiplier=mult,
                    gamma=spec.gamma,
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
    for e in entries:
        cells = (e.method, f"{e.multiplier:g}", e.gamma, e.status, e.rounds, e.uplink_bits_to_tol,
                 e.downlink_bits_to_tol, e.final_grad_norm_sq, "best" if best.get(e.method) is e else "")
        lines.append(",".join("" if cell is None else _fmt(cell) for cell in cells))
    summary_path.write_text("\n".join(lines) + "\n")
    return ExperimentResult(tuple(entries), best, str(summary_path), tuple(notes))


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    rounds: int
    tolerance: float


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def solve_reference(problem: Problem, tolerance: float, max_rounds: int = 10**6) -> ReferenceSolution:
    """Plain gradient descent at 1/l_minus until the gradient norm is tiny.

    Quadratics are solved exactly at the origin. If the iteration cap is hit
    a warning is issued and the achieved tolerance is reported instead.
    """
    _check_tolerance(tolerance)
    if problem.kind == QUADRATIC:
        x = np.zeros(problem.dim)
        return ReferenceSolution(x, 0.0, 0.0, 0, tolerance)
    gamma = 1.0 / smoothness(problem).l_minus
    x = np.zeros(problem.dim)
    rounds = 0
    while True:
        # Unchecked x is safe: gradient descent at 1/l_minus keeps it finite.
        f, grads = _round_oracle(problem, x[None])
        f_star, grad = float(f[0]), mean_ascending(grads[0])
        norm = math.sqrt(sqnorm(grad))
        if not (norm > tolerance and rounds < max_rounds):
            break
        x = x - gamma * grad
        rounds += 1
    if norm > tolerance:
        warnings.warn(
            f"reference solve stopped at the {max_rounds}-round cap with gradient norm {norm:.3e}",
            RuntimeWarning,
        )
    return ReferenceSolution(x, f_star, norm, rounds, norm if norm > tolerance else tolerance)


def problem_digest(problem: Problem) -> str:
    """Digest of everything the objective depends on.

    Covers the kind, lam, and every shard's features and labels in client
    order (so feature scaling and the partition count), or the quadratic
    diagonal. A sparse problem's shards are densified one at a time.
    """
    h = hashlib.sha256(f"{problem.kind}|{float(problem.lam)!r}".encode())
    if problem.kind == QUADRATIC:
        arrays = [problem.diagonal]
    else:
        arrays = (a for shard in problem.shards for a in (shard.features, shard.labels))
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def reference_cache_path(cache_dir: Path, problem: Problem) -> Path:
    return Path(cache_dir) / f"ref_{problem_digest(problem)}.txt"


def save_reference(path: Path, problem: Problem, ref: ReferenceSolution) -> None:
    scalars = {"lam": float(problem.lam), "tolerance": float(ref.tolerance), "grad_norm": float(ref.grad_norm),
               "rounds": ref.rounds, "f_star": float(ref.f_star)}
    lines = ["# reference minimum cache"]
    lines += [f"{key} = {_fmt(value)}" for key, value in scalars.items()]
    lines.append("x_star = " + " ".join(_fmt(float(v)) for v in ref.x_star))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def load_reference(path: Path) -> tuple[float, ReferenceSolution]:
    """(lam, solution) from a cache file; a missing or unparseable key raises a ValueError naming the file."""
    values = {key: value for _, key, value in _key_values(Path(path).read_text(), f"reference cache {path}")}
    readers = {"lam": float} | {f.name: _READERS[f.type] for f in fields(ReferenceSolution)}
    try:
        parsed = {key: _parse(key, values[key], read) for key, read in readers.items()}
    except KeyError as err:
        raise ValueError(f"reference cache {path}: missing key {err}") from None
    except ValueError as err:
        raise ValueError(f"reference cache {path}: {err}") from None
    return parsed.pop("lam"), ReferenceSolution(**parsed)


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
    _check_tolerance(tolerance)
    path = reference_cache_path(cache_dir, problem)
    if path.exists():
        try:
            _, ref = load_reference(path)
        except ValueError:  # a damaged file is a miss: it is solved again and rewritten
            ref = None
        if ref is not None and ref.x_star.shape == (problem.dim,) and ref.tolerance <= tolerance:
            return ref
    ref = solve_reference(problem, tolerance, max_rounds)
    save_reference(path, problem, ref)
    return ref
