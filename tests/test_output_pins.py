"""Byte pins of every file three CLI commands write.

The commands cover a quadratic with a compressed init, a manual stepsize and a
non-identity master; a bidirectional synthetic run that stops on its bit
budget; a reference-minimum cache file; and a sweep over a mostly-zero LIBSVM
file, whose oracle multiplies CSR rows. A high-dimensional sweep with
top-k and rand-k AdaCGD workers is pinned the same way through
``run_experiment``. The digests hold for the BLAS build named in
``test_acceptance.py``.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adacgd import experiments
from adacgd.cli import main as cli_main
from adacgd.compressors import AdaCGD, ContractorSpec
from adacgd.datasets import _client_order, build_problem, max_abs_scale, parse_libsvm, to_dense
from adacgd.experiments import RunConfig, build_dataset, default_klist, run_experiment


def sparse_libsvm_text(rows: int = 47, dim: int = 24) -> str:
    """A LIBSVM text about 6% nonzero, from integer arithmetic alone.

    Row r holds r % 4 features, so every fourth row is all zeros, and some
    values are an explicit 0.
    """
    lines = []
    for r in range(rows):
        indices = sorted((r * 7 + k * 5) % dim + 1 for k in range(r % 4))
        features = " ".join(f"{j}:{((r * 37 + j * 11) % 19 - 9) / 4}" for j in indices)
        lines.append(f"{'+1' if (r * 13) % 5 < 2 else '-1'} {features}".rstrip())
    return "\n".join(lines) + "\n"

COMMANDS = {
    "quadratic-compressed-init": (
        ["run", "--dataset", "quadratic:diag=1|2|4,n=3", "--method", "gd lag:zeta=2 adacgd:klist=1|2",
         "--master", "ef21:k=2", "--stepsize", "manual:0.05", "--init", "compressed", "--multipliers", "1 3",
         "--stop", "rounds=3"],
        {
            "traces/adacgd_z1_x1.csv": "415f6a0156774bfc5ee91ed11c3b35ce98d6e476c0265e5c0d57c9f4fb4d1bf2",
            "traces/adacgd_z1_x3.csv": "3a3f78ba57d52095721fa25fc27af87ffea14bc14fc9dc75c0f0e14f18b39dd4",
            "traces/gd_x1.csv": "6d66484b85e01c5bf755472ebf01d965b7f069f2ab4a14bd723d6b947ba1790a",
            "traces/gd_x3.csv": "76090636864a14c01308a609487dec72150dd91a18742e79b8cf95a5441b3fff",
            "traces/lag_z2_x1.csv": "4ee98141d4d160f42124a8cc009b642ff7c724bbd4d6a2d0ff12fe02de581600",
            "traces/lag_z2_x3.csv": "0e81a9177e144db7728f8150a6f8f8f52cafd9a80a875e0eef268e02db788692",
            "traces/summary.csv": "959ddedaa57de9c1aefabd3c19e9756fc08678f52e53594726ec6b48d8ff0382",
        },
    ),
    "synthetic-bidirectional-bit-budget": (
        ["run", "--dataset", "synthetic:n=40,d=6,seed=3", "--n-clients", "4", "--method", "ef21:k=2 clag:k=1,zeta=0.5",
         "--stepsize", "bidirectional", "--master", "ef21:k=3", "--stop", "rounds=50,bits=20000"],
        {
            "traces/clag_k1_z0.5_x1.csv": "482f3a87c774280deddd353128c15a9163da1c1f360e900de0e6b0884313bcf1",
            "traces/ef21_k2_x1.csv": "b4701183df46f1e9d53ddb4fb6002a449a4e4cad5f601c20b218c704bfa0453f",
            "traces/summary.csv": "f95a9dc4e80f58a3a2c3ca3b1be45ab490f7fe15c5900dc056e6abe3826d8f51",
        },
    ),
    "solve-reference": (
        ["solve-reference", "--dataset", "synthetic:n=30,d=4,seed=2", "--n-clients", "2", "--lam", "0.1",
         "--tolerance", "1e-6"],
        {"traces/ref_f7bbc070fc775d1c.txt": "253f066b06f9c33e49fa6f2d672a3799c4bf577ff59a97eec497ca8ef1882ba4"},
    ),
    # rows.svm is sparse_libsvm_text(), written by the test.
    "sparse-libsvm": (
        ["run", "--dataset", "rows.svm", "--n-clients", "4", "--method", "gd ef21:k=1 lag adacgd:klist=1|4",
         "--multipliers", "1 4", "--stop", "rounds=20"],
        {
            "traces/adacgd_z1_x1.csv": "97200fe2a66c619f2aed23a9816287bf62d5f97045ef68e9a4ea276a29b1f009",
            "traces/adacgd_z1_x4.csv": "1dc2ee4e49496f9caea5165d817723298c4dcb1961a262dcb7fc2caef745b9f4",
            "traces/ef21_k1_x1.csv": "1381b926bc0c27297ec32d774d8272b507402649201daa00893d26049e45e656",
            "traces/ef21_k1_x4.csv": "42b551aa593e1683d734b2fedef7277439016f97aae9f2ef602a409da5c8cb48",
            "traces/gd_x1.csv": "a9d78fca445c7b9ba6e9ed1df2b2ad185b1d8158d46b74ca5f7459bd653e4eb3",
            "traces/gd_x4.csv": "f645abb92f91043412050f56aaf18852c9df2b02d44dd1ebf2b8cc490f992542",
            "traces/lag_z1_x1.csv": "7a9765ccfd71f96ce7b025fd42fe2615a84c9c76d4b93e0e3a7d360dcec8126e",
            "traces/lag_z1_x4.csv": "c179abc4f38e83fcfd26a9b6cbb263479c554169fdd261571289dbf17259317b",
            "traces/summary.csv": "19624066cd9f05ccd5e52b9eb93b298a70a2082675b3cc712764f6162b9059e2",
        },
    ),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_files_are_pinned(tmp_path, monkeypatch, capsys, name):
    argv, pinned = COMMANDS[name]
    monkeypatch.chdir(tmp_path)  # every command writes under the default ./traces
    if name == "sparse-libsvm":
        (tmp_path / "rows.svm").write_text(sparse_libsvm_text())
        assert build_dataset(RunConfig(dataset="rows.svm", n_clients=4))[0].rows.sparse
    assert cli_main(argv) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.name != "rows.svm"
    }
    assert written == pinned


@pytest.mark.parametrize("scale_features", [False, True])
def test_libsvm_file_writes_the_bytes_of_the_dense_entry(tmp_path, monkeypatch, scale_features):
    """build_dataset gathers LIBSVM rows into client order as CSR entries, never densely; that changes no byte."""
    path = tmp_path / "rows.svm"
    path.write_text(sparse_libsvm_text())
    config = RunConfig(dataset=str(path), n_clients=4, methods=("gd", "ef21:k=2", "adacgd:klist=1|4"), multipliers=(1.0, 4.0), max_rounds=15,
                       scale_features=scale_features, out_dir=str(tmp_path / "parsed"))
    run_experiment(config)
    build = experiments.build_dataset

    def dense_entry(config):
        problem, digest = build(config)
        dense = build_problem(*to_dense(*parse_libsvm(path.read_text())), config.n_clients, config.lam, config.seed,
                              scale_features=config.scale_features)
        assert problem.rows.sparse and dense.rows.sparse
        assert len(problem.shards) == len(dense.shards) == config.n_clients
        features, labels = to_dense(*parse_libsvm(path.read_text()))
        order, _ = _client_order(labels, config.n_clients, config.seed)
        rows = np.concatenate([shard.features for shard in problem.shards])
        want = max_abs_scale(features) if config.scale_features else features
        assert rows.tobytes() == want[order].tobytes()  # every densified value is the dense entry's
        for a, b in [*((p.features, d.features) for p, d in zip(problem.shards, dense.shards)),  # densified blocks
                     (problem.rows.matrix.data, dense.rows.matrix.data),
                     (problem.rows.matrix.indices, dense.rows.matrix.indices),
                     (problem.rows.matrix.indptr, dense.rows.matrix.indptr)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return dense, digest

    monkeypatch.setattr(experiments, "build_dataset", dense_entry)
    run_experiment(replace(config, out_dir=str(tmp_path / "dense")))
    parsed = {p.name: p.read_bytes() for p in sorted((tmp_path / "parsed").iterdir())}
    assert len(parsed) == 7
    assert parsed == {p.name: p.read_bytes() for p in sorted((tmp_path / "dense").iterdir())}


# d = 1000 over 4 clients: the workers' (4, 1000) stacks are wide, and every
# AdaCGD level is reached. Rand-k levels cannot be written as a method label,
# so that AdaCGD goes through extra_specs.
HIGHDIM_PINS = {
    "full": {
        "adacgd_randk_x1.csv": "706f6160c28838de6ec6a22cc0e0578c4ddcbd2be34beb895dc3938063260aeb",
        "adacgd_z16_x1.csv": "3da80dabe7e7286afecf9e97d34f3556af650293a2e9560cc3b6dfc17def14f5",
        "summary.csv": "33b90c582eca8fe2179b71b990146728a98a45c0726da086fd189e0c39288c75",
    },
    "compressed": {
        "adacgd_randk_x1.csv": "41d3e177ee56b9b1245d835ed2f58f560292a27f4858dff10393ff9e67e77b37",
        "adacgd_z16_x1.csv": "1550f5271f19ae7bbd82e0a671fb49e050b64f4b6c9abefc8af48e6756022db4",
        "summary.csv": "d0772f1cbb5bbd27e8c5ccdff055147ed0a9b74255c16a19afa183f1d6777bf2",
    },
}


@pytest.mark.parametrize("init_mode", HIGHDIM_PINS)
def test_highdim_sparsifier_sweep_is_pinned(tmp_path, init_mode):
    zeta = 16.0
    config = RunConfig(
        dataset="synthetic:n=40,d=1000,seed=5",
        n_clients=4,
        methods=("adacgd",),
        master="ef21:k=100",
        zeta=zeta,
        stepsize="bidirectional",
        init_mode=init_mode,
        max_rounds=15,
        seed=3,
        out_dir=str(tmp_path),
    )
    randk = AdaCGD(tuple(ContractorSpec.rand_k(k) for k in default_klist(1000)), zeta)
    run_experiment(config, extra_specs={"adacgd_randk": randk})
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert written == HIGHDIM_PINS[init_mode]


# One sweep in which every way a run can end happens inside one method's set of
# multipliers: AdaCGD x3 stops on the bit budget, x10 on the tolerance, x20 at
# max_rounds, and x100000 diverges at round 71 (its objective overflows) while
# the others go on. gd ends on the budget, the tolerance and a divergence.
DIVERGING_SWEEP = RunConfig(
    dataset="quadratic:diag=0.5|1|3|6|9,n=3",
    methods=("adacgd:klist=1|2", "gd"),
    stepsize="manual:0.01",
    multipliers=(3.0, 10.0, 20.0, 1e5),
    max_rounds=100,
    grad_tol_sq=1e-3,
    bit_budget=60000,
    seed=1,
)
DIVERGING_SWEEP_PINS = {
    "adacgd_z1_x10.csv": "9ee39ea7f7ee7f5d5956c2ac27661897675afe4597a383ebe4e25ffe18da5cdd",
    "adacgd_z1_x100000.csv": "f6a2a60efbb3d57dd0782c6967ac7ccb900e0f0a8fc6d85c6f8067cf1efaefae",
    "adacgd_z1_x20.csv": "a4f238060958e5d3ac4571e9760237836c9362b5e612e93f0b2f59d5107a28ab",
    "adacgd_z1_x3.csv": "eeacc3667841aafd43281c69c8a4d9e70075e070e4619613345b43240901edd4",
    "gd_x10.csv": "c5c45fac33fe3f29c0297fcc238a7085aaf59c59c4ba815f18e840759c4bb5d5",
    "gd_x100000.csv": "234d6c59a00a450612363efa7ba9f32db453d2fe4b4fc59095410a6477adec0f",
    "gd_x20.csv": "7d1f7484b3db7a5dd53eeb62851da204c122fe148f6b44d8c8445e5d1b2ff089",
    "gd_x3.csv": "524ec74e7057f4876ff481f1ea1db7418575f20fd26b6c49897c30d29177a916",
    "summary.csv": "febf9edb1a1cc8fa9e81f77b4e479d62376b4eac7b0fe5106f635f7771790f70",
}


def test_sweep_with_a_diverging_multiplier_is_pinned(tmp_path):
    result = run_experiment(replace(DIVERGING_SWEEP, out_dir=str(tmp_path)))
    ends = {(e.method, e.multiplier): (e.status, e.rounds) for e in result.entries}
    assert ends == {
        ("adacgd_z1", 3.0): ("unreached", 91),  # 60289 bits after round 91
        ("adacgd_z1", 10.0): ("reached", 48),
        ("adacgd_z1", 20.0): ("unreached", 100),  # 55183 bits: max_rounds
        ("adacgd_z1", 1e5): ("diverged", 70),
        ("gd", 3.0): ("unreached", 46),
        ("gd", 10.0): ("unreached", 46),
        ("gd", 20.0): ("reached", 28),
        ("gd", 1e5): ("diverged", 38),
    }
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert written == DIVERGING_SWEEP_PINS
