"""Pinned digests of the problems `build_dataset` assembles.

For each dataset form the config language accepts (the protocol's synthetic
set, a flipped and max-abs-scaled synthetic set, and a LIBSVM file whose row
count the client count does not divide, unscaled and scaled): the
`problem_digest` of the assembled problem, which covers every shard's
features and labels in client order, and the `dataset_hash` every trace
header carries.
"""

import pytest

from adacgd.experiments import RunConfig, build_dataset, problem_digest

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_dataset_digests_pinned(name, tmp_path):
    dataset, n_clients, lam, seed, scale, want_problem, want_hash = CASES[name]
    if dataset == "LIBSVM":
        path = tmp_path / "small.svm"
        path.write_text(LIBSVM_TEXT)
        dataset = str(path)
    config = RunConfig(dataset=dataset, n_clients=n_clients, lam=lam, seed=seed, scale_features=scale)
    problem, dataset_hash = build_dataset(config)
    assert (problem_digest(problem), dataset_hash) == (want_problem, want_hash)
