"""Pinned output of the round driver for every way round 0 can start.

For each (init mode, worker rule, master rule) case: the sha256 of the first
20 trace rows ``iterate`` yields, and of the round-0 worker estimates. The
estimates are hashed after ``+ 0.0``, which maps a ``-0.0`` entry to
``+0.0``: no trace column can carry the sign of a zero, so the pin does not
either.
"""

import hashlib
import itertools

import numpy as np
import pytest

from adacgd.compressors import AdaCGD, ContractorSpec, EF21, IdentityMaster
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.engine import RunSpec, StopRule, iterate
from adacgd.experiments import record_to_row

C = ContractorSpec
ROUNDS = 20

WORKERS = {
    "ef21-rand2": EF21(C.rand_k(2)),
    "adacgd-rand1-top3": AdaCGD((C.rand_k(1), C.top_k(3)), 1.0),
}

# id: (init mode, worker, master, sha256 of the rows, sha256 of the round-0 estimates)
CASES = {
    "full-ef21-rand2": (
        "full", "ef21-rand2", IdentityMaster(),
        "0ea45ea57d0c41eadd889432a752f8f521f7b4f412f245567a4f69ab6175410d",
        "d971649c5e3e0c571463e69dd35cfcda84d209dd941e9669503b7c2cd43ef402",
    ),
    "compressed-ef21-rand2": (
        "compressed", "ef21-rand2", IdentityMaster(),
        "c7bb8c2af6f63a5a91cc292e208a8b9867ddbdee765917e844823f704c269833",
        "941ac836db722610cc551866e0c2e4b923876388894a38427127e445d3fdab27",
    ),
    "full-adacgd": (
        "full", "adacgd-rand1-top3", IdentityMaster(),
        "7f1e8d8f000c031397fdf4d2adc2f982ba22a46d385f703acb590890a648d727",
        "d971649c5e3e0c571463e69dd35cfcda84d209dd941e9669503b7c2cd43ef402",
    ),
    "compressed-adacgd": (
        "compressed", "adacgd-rand1-top3", IdentityMaster(),
        "fa50ca9b5bfeedca755b4eec966bca8ef30aaf4175ba14513ff56510253953e3",
        "04fea6a80de9ce0cacad44f06fc3f1db7660999e13905fc488752dd1f8b7b8c1",
    ),
    "compressed-adacgd-bidirectional": (
        "compressed", "adacgd-rand1-top3", EF21(C.top_k(2)),
        "d2179145ea6a002dd42b0f84cc2ae35debb2e809112903f757f4394eea2a0e45",
        "04fea6a80de9ce0cacad44f06fc3f1db7660999e13905fc488752dd1f8b7b8c1",
    ),
}


def _problem():
    features, labels = make_synthetic(SyntheticSpec(n_examples=60, dim=6, seed=3))
    return build_problem(features, labels, n_clients=3, lam=0.1, seed=3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_iterate_output_is_pinned(case):
    init_mode, worker, master, rows_sha, estimates_sha = case
    problem = _problem()
    spec = RunSpec(problem, WORKERS[worker], master, np.zeros(problem.dim), 0.5, StopRule(ROUNDS), seed=4,
                   init_mode=init_mode)
    rounds = list(itertools.islice(iterate(spec), ROUNDS))
    rows = "\n".join(record_to_row(record) for _, record in rounds)
    estimates = np.stack(rounds[0][0].worker_estimates) + 0.0
    assert _sha(rows.encode()) == rows_sha
    assert _sha(estimates.tobytes()) == estimates_sha
