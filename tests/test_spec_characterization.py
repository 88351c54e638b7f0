"""Pinned per-rule facts of every compression spec class.

For each spec: the certified (a, b) at d = 4 and d = 50, whether compressing
draws from a stream, the strongest reachable contractor, the number of
branch indices it can report, its adaptive level count and the engine's
branch-header bits. These are the values the engine's bit accounting,
stream derivation and compressed init are built from.
"""

import pytest

from adacgd.compressors import (
    Ada3PC,
    AdaCGD,
    CLAG,
    CandidateErrorTrigger,
    ContractorSpec,
    EF21,
    IdentityMaster,
    LAG,
    adacgd_as_chain,
    certified_constants,
)
from adacgd.engine import branch_header_bits

C = ContractorSpec
TOP1 = (0.13397459621556135, 5.598076211353316), (0.010050506338833465, 97.50752518939716)
TOP2 = (0.2928932188134525, 1.7071067811865475), (0.02020410288672876, 47.5151015307185)
EXACT = (1.0, 0.0), (1.0, 0.0)

# id: (spec, (a, b) at d=4, (a, b) at d=50, randomized, strongest, branches, levels, header bits)
CASES = {
    "ef21-top2": (EF21(C.top_k(2)), *TOP2, False, C.top_k(2), 1, 0, 0),
    "ef21-rand1": (EF21(C.rand_k(1)), *TOP1, True, C.rand_k(1), 1, 0, 0),
    "ef21-identity": (EF21(C.identity()), *EXACT, False, C.identity(), 1, 0, 0),
    "lag": (LAG(1.5), (1.0, 1.5), (1.0, 1.5), False, C.identity(), 2, 0, 0),
    "clag-top1": (CLAG(C.top_k(1), 2.0), *TOP1, False, C.top_k(1), 2, 0, 0),
    "clag-rand2": (CLAG(C.rand_k(2), 0.5), *TOP2, True, C.rand_k(2), 2, 0, 0),
    "adacgd-top": (AdaCGD((C.top_k(1), C.top_k(2), C.identity()), 1.0), *TOP1, False, C.top_k(1), 4, 3, 2),
    "adacgd-rand": (AdaCGD((C.rand_k(1), C.top_k(3)), 0.5), *TOP1, True, C.rand_k(1), 3, 2, 2),
    "ada3pc-rand-trigger": (
        Ada3PC((LAG(1.0), EF21(C.top_k(1))), (CandidateErrorTrigger(1.0, C.rand_k(1)),)),
        *TOP1, True, C.top_k(1), 2, 2, 2,
    ),
    "ada3pc-callable": (
        Ada3PC(
            (LAG(3.0), CLAG(C.top_k(2), 0.25), EF21(C.top_k(4))),
            (lambda h, y, x: True, lambda h, y, x: False),
        ),
        (TOP2[0][0], 3.0), TOP2[1], False, C.top_k(2), 3, 3, 2,
    ),
    "adacgd-chain": (adacgd_as_chain((C.top_k(1), C.top_k(3)), 1.0), *TOP1, False, C.top_k(1), 3, 3, 2),
    "identity-master": (IdentityMaster(), *EXACT, False, C.identity(), 1, 0, 0),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_spec_facts_are_pinned(case):
    spec, ab4, ab50, randomized, strongest, branches, levels, header = case
    for dim, (a, b) in ((4, ab4), (50, ab50)):
        c = certified_constants(spec, dim)
        assert (c.a, c.b) == (a, b)
        assert spec.strongest_contractor(dim) == strongest
    assert spec.randomized is randomized
    assert spec.branch_count == branches
    assert spec.adaptive_level_count == levels
    assert branch_header_bits(spec) == header
