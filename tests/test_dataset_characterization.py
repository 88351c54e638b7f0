"""Pinned digests of the problems `build_dataset` assembles.

For each dataset form the config language accepts (the protocol's synthetic
set, a flipped and max-abs-scaled synthetic set, and a LIBSVM file whose row
count the client count does not divide, unscaled and scaled, both a dense
one and a mostly-zero one held in CSR form): the `problem_digest` of the
assembled problem, which covers every shard's features and labels in client
order, and the `dataset_hash` every trace header carries.
"""

import hashlib
import re

import pytest

from adacgd.experiments import RunConfig, build_dataset, problem_digest, run_experiment
from test_output_pins import sparse_libsvm_text

LIBSVM_TEXT = """\
+1 1:0.5 3:-2.25 4:1e-3
-1 2:1.5
0 1:-0.75 2:0.125 4:8
1 3:4
-1 1:2 2:-1 3:0.5 4:-0.25
+1
-1 4:-3.5
+1 1:1 2:1 3:1 4:1
-1 2:-0.5 3:6
+1 1:-1.25 4:0.75
-1 1:3 3:-0.125
"""

CASES = {
    # name: (dataset, n_clients, lam, seed, scale_features, problem_digest, dataset_hash)
    "protocol": ("synthetic:n=1000,d=50,seed=7,scale=3,cond=200", 20, 0.1, 1, False,
                 "5aa74c0fc551ed18", "6ab504873d7ab44f"),
    "flip-scaled": ("synthetic:n=300,d=7,seed=2,flip=0.1", 7, 0.05, 3, True,
                    "4b11db21bcff3b45", "870e07da98954ae8"),
    "libsvm": ("LIBSVM", 3, 0.1, 4, False, "0db7cc55e50deb5f", "6909a78bc9614ab6"),
    "libsvm-scaled": ("LIBSVM", 3, 0.1, 4, True, "e3e6211c499da3fa", "6909a78bc9614ab6"),
    # sparse_libsvm_text(): 47 rows over 4 clients, about 6% nonzero, so the rows are held only in CSR form.
    "sparse-libsvm": ("SPARSE", 4, 0.1, 4, False, "3772833e712af594", "9309761407dc49aa"),
    "sparse-libsvm-scaled": ("SPARSE", 4, 0.1, 4, True, "512e1bab92cd72e3", "9309761407dc49aa"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_dataset_digests_pinned(name, tmp_path):
    dataset, n_clients, lam, seed, scale, want_problem, want_hash = CASES[name]
    if dataset in ("LIBSVM", "SPARSE"):
        path = tmp_path / "small.svm"
        path.write_text(LIBSVM_TEXT if dataset == "LIBSVM" else sparse_libsvm_text())
        dataset = str(path)
    config = RunConfig(dataset=dataset, n_clients=n_clients, lam=lam, seed=seed, scale_features=scale)
    problem, dataset_hash = build_dataset(config)
    assert (problem_digest(problem), dataset_hash) == (want_problem, want_hash)
    assert problem.rows.sparse == name.startswith("sparse")


# Traces of a 10-round gd and ef21:k=1 sweep on NEGATIVE_ZERO_TEXT, unscaled and scaled, with the config below.
NEGATIVE_ZERO_TRACES = {
    False: {
        "ef21_k1_x1.csv": "5f0315f82de67366b2bd2689ca84486eb623f729110ac0c27a7760ff71d744d3",
        "gd_x1.csv": "bce5d6748dbaf4dfb642145f00a564f2b2f11ec0a539e9ad865f2a17fdb99228",
        "summary.csv": "fafce9a03c6f1de79a558ab9abb8446f9cd4aa70d48de9511648fe41f731f4b7",
    },
    True: {
        "ef21_k1_x1.csv": "edf1894f0fd1d020c05d506e10146b0441773fbe6afef540444870134de369e1",
        "gd_x1.csv": "01bef0e411cb9821d6a8ae6df484155d7b3d1690c102c70f59a8b14ebdbd0faa",
        "summary.csv": "d0a7b7b40b28b54243357fdea0946e74c8b80d5203dd77ff3e266944c233640c",
    },
}


@pytest.mark.parametrize("scale", [False, True])
def test_a_negative_zero_in_a_sparse_file_moves_only_its_problem_digest(tmp_path, monkeypatch, scale):
    """A mostly-zero file's ``-0`` entries are dropped from CSR and densify as +0.0.

    So its problem digest is that of the same file with ``0``: the
    ``sparse-libsvm`` pin. It is the one cache key the CSR-only storage
    moved; when rows were also held densely, this file's dense -0.0 gave
    ``db685b41a3aa283c`` unscaled and ``970a0ea44e62afb8`` scaled. Its traces
    keep their bytes, pinned in NEGATIVE_ZERO_TRACES.
    """
    text = re.sub(r":0\.0\b", ":-0.0", sparse_libsvm_text())
    assert text.count(":-0.0") == 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "negzero.svm").write_text(text)
    (tmp_path / "zero.svm").write_text(sparse_libsvm_text())
    (negative, _), (positive, _) = [build_dataset(RunConfig(dataset=name, n_clients=4, lam=0.1, seed=4, scale_features=scale))
                                    for name in ("negzero.svm", "zero.svm")]
    for a, b in [(negative.rows.matrix.data, positive.rows.matrix.data),
                 (negative.rows.matrix.indices, positive.rows.matrix.indices),
                 (negative.rows.matrix.indptr, positive.rows.matrix.indptr)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert problem_digest(negative) == problem_digest(positive) == CASES[f"sparse-libsvm{'-scaled' if scale else ''}"][5]
    run_experiment(RunConfig(dataset="negzero.svm", n_clients=4, lam=0.1, seed=4, methods=("gd", "ef21:k=1"),
                             multipliers=(1.0,), max_rounds=10, scale_features=scale, out_dir="traces"))
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((tmp_path / "traces").iterdir())}
    assert written == NEGATIVE_ZERO_TRACES[scale]
