"""The benchmark's workloads: one sweep configuration each, built from the seed.

A workload is described here in the benchmark's own terms: the sweep config
handed to ``experiments.run_experiment``, plus what the checks need to know
about every method independently of the program (its branches and what each
branch costs on the wire, which run is plain gradient descent, the stepsize
rule). Nothing here imports the program, so the checks never read a method's
cost model back from the code they are checking.

Every workload does a fixed amount of work for any seed: each run either
reaches the tolerance at a round that does not depend on the seed or runs to
the round cap, and no run diverges. Timings across seeds then differ by noise,
not by input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VALUE_BITS = 64


@dataclass(frozen=True)
class Method:
    """One worker compressor of a sweep, as the checks see it.

    ``branches`` lists what each branch index puts on the wire:
    ``("skip",)``, ``("full",)`` or ``("sparse", k)``. ``header_bits`` is the
    adaptive branch-id header added to every sparse payload.
    """

    label: str  # method label for the config, or the extra_specs key
    trace_name: str  # stem of the trace files the sweep writes for it
    branches: tuple[tuple, ...]
    header_bits: int = 0
    gd: bool = False
    extra_levels: tuple[tuple[str, int], ...] = ()  # rand-k AdaCGD built in the worker


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n_clients: int
    dim: int
    methods: tuple[Method, ...]
    multipliers: tuple[float, ...]
    max_rounds: int
    grad_tol_sq: float
    seed: int
    master: str = "identity"
    master_branch: tuple = ("full",)
    stepsize: str = "nonconvex"
    lam: float = 0.1
    zeta: float = 1.0
    setup_reps: int = 3
    libsvm_rows: int = 0  # > 0: the dataset is a LIBSVM file the benchmark writes
    # Parts of the machine-speed kernel (calibrate.PARTS) that resemble the set-up's
    # work and the rounds' work; each phase's time is rescaled by its own parts.
    setup_parts: tuple[str, ...] = ("integer_loop", "objects", "small_numpy")
    round_parts: tuple[str, ...] = ("integer_loop", "objects", "small_numpy")

    @property
    def calibration_parts(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.setup_parts + self.round_parts))

    def write_inputs(self) -> None:
        """Generate the workload's input file, if it reads one, from the seed."""
        if self.libsvm_rows:
            write_libsvm(Path(self.dataset), self.libsvm_rows, self.dim, self.seed)

    @property
    def bidirectional(self) -> bool:
        return self.stepsize == "bidirectional"

    @property
    def ops_per_sweep(self) -> int:
        return len(self.methods) * len(self.multipliers)

    def config_values(self, out_dir: Path) -> dict:
        """Keyword arguments for ``experiments.RunConfig``."""
        return dict(
            dataset=self.dataset,
            n_clients=self.n_clients,
            lam=self.lam,
            methods=tuple(m.label for m in self.methods if not m.extra_levels),
            master=self.master,
            stepsize=self.stepsize,
            multipliers=self.multipliers,
            zeta=self.zeta,
            max_rounds=self.max_rounds,
            grad_tol_sq=self.grad_tol_sq,
            seed=self.seed,
            out_dir=str(out_dir),
        )

    def trace_files(self) -> list[tuple[Method, float, str]]:
        """(method, multiplier, file name) in the order the sweep runs them."""
        ordered = [m for m in self.methods if not m.extra_levels]
        ordered += [m for m in self.methods if m.extra_levels]
        return [(m, mult, f"{m.trace_name}_x{mult:g}.csv") for m in ordered for mult in self.multipliers]


def default_levels(dim: int) -> tuple[int, ...]:
    """The documented default adaptive k-list: {1, ceil(d/100), ceil(d/10), ceil(d/2)}."""
    return tuple(sorted({1, math.ceil(dim / 100), math.ceil(dim / 10), math.ceil(dim / 2)}))


def _adaptive_branches(levels) -> tuple[tuple[tuple, ...], int]:
    branches = (("skip",),) + tuple(("sparse", k) for k in levels)
    return branches, math.ceil(math.log2(len(levels) + 1))


def _protocol(seed: int, tiny: bool) -> Workload:
    # The acceptance protocol's problem (tests/test_acceptance.py, protocol_result).
    # Its data stay fixed; the seed picks the client partition and the RNG streams.
    n, d = (200, 10) if tiny else (1000, 50)
    ada, header = _adaptive_branches(default_levels(d))
    return Workload(
        name="protocol_sweep",
        dataset=f"synthetic:n={n},d={d},seed=7,scale=3,cond=200",
        n_clients=20,
        dim=d,
        methods=(
            Method("gd", "gd", (("full",),), gd=True),
            Method("ef21:k=1", "ef21_k1", (("sparse", 1),)),
            Method("lag", "lag_z1", (("skip",), ("full",))),
            Method("clag:k=1", "clag_k1_z1", (("skip",), ("sparse", 1))),
            Method("adacgd", "adacgd_z1", ada, header),
        ),
        multipliers=(1.0, 4.0),
        max_rounds=12 if tiny else 100,
        grad_tol_sq=1e-4,
        seed=seed,
        setup_reps=3 if tiny else 10,
    )


def _libsvm(seed: int, tiny: bool, data_dir: Path) -> Workload:
    rows, d = (211, 24) if tiny else (LIBSVM_ROWS, LIBSVM_DIM)
    ada, header = _adaptive_branches(default_levels(d))
    return Workload(
        name="libsvm_shards",
        dataset=str(Path(data_dir) / f"libsvm_seed{seed}.svm"),
        n_clients=20,
        dim=d,
        methods=(
            Method("gd", "gd", (("full",),), gd=True),
            Method("ef21:k=1", "ef21_k1", (("sparse", 1),)),
            Method("adacgd", "adacgd_z1", ada, header),
        ),
        multipliers=(1.0, 4.0),
        max_rounds=6 if tiny else 10,
        # Tight enough that no run stops early, so every seed does the same work.
        grad_tol_sq=1e-8,
        seed=seed,
        setup_reps=1,
        libsvm_rows=rows,
    )


def _highdim(seed: int, tiny: bool) -> Workload:
    n, d = (40, 200) if tiny else (150, 2000)
    levels = default_levels(d)
    ada, header = _adaptive_branches(levels)
    k_master = math.ceil(d / 10)
    return Workload(
        name="highdim_bidir",
        dataset=f"synthetic:n={n},d={d},seed={seed},scale=1",
        n_clients=10,
        dim=d,
        methods=(
            Method("adacgd", "adacgd_z1", ada, header),
            # Rand-k levels cannot be written as a method label; the worker
            # builds this AdaCGD and passes it through extra_specs.
            Method("adacgd_randk", "adacgd_randk", ada, header, extra_levels=tuple(("randk", k) for k in levels)),
        ),
        multipliers=(1.0, 64.0),
        max_rounds=6 if tiny else 30,
        grad_tol_sq=1e-4,
        seed=seed,
        master=f"ef21:k={k_master}",
        master_branch=("sparse", k_master),
        stepsize="bidirectional",
        setup_reps=3,
        round_parts=("integer_loop", "small_numpy", "matvec", "argsort"),
    )


WORKLOADS = ("protocol_sweep", "libsvm_shards", "highdim_bidir")

LIBSVM_ROWS = 20011  # not a multiple of 20, so shard sizes differ by one
LIBSVM_DIM = 256
LIBSVM_MEAN_NNZ = 14


def build(name: str, seed: int, data_dir: Path, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; an input file it reads lives under ``data_dir``."""
    if name == "protocol_sweep":
        return _protocol(seed, tiny)
    if name == "libsvm_shards":
        return _libsvm(seed, tiny, data_dir)
    if name == "highdim_bidir":
        return _highdim(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def write_libsvm(path: Path, rows: int, dim: int, seed: int) -> None:
    """Write a sparse binary-classification set in LIBSVM text form.

    Feature popularity falls off as a power law, so a few columns are dense
    and most are rare, as in text or click data. Values carry three decimals;
    labels come from a logistic model so the classes overlap.
    """
    g = np.random.default_rng([seed, 0x5EED])
    popularity = 1.0 / np.arange(1, dim + 1) ** 0.8
    popularity /= popularity.sum()
    w = g.standard_normal(dim) / math.sqrt(LIBSVM_MEAN_NNZ)
    counts = np.clip(g.binomial(2 * LIBSVM_MEAN_NNZ, 0.5, size=rows), 1, dim)
    lines = []
    for count in counts:
        idx = np.sort(g.choice(dim, size=int(count), replace=False, p=popularity))
        val = np.round(g.exponential(1.0, size=idx.shape[0]), 3) + 0.001
        p = 1.0 / (1.0 + math.exp(-float(val @ w[idx])))
        label = "+1" if g.random() < p else "-1"
        lines.append(label + " " + " ".join(f"{i + 1}:{v:.3f}" for i, v in zip(idx.tolist(), val.tolist())))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
