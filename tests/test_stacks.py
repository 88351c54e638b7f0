"""A method's multipliers advance as one stack, and each run keeps the bytes it has alone.

The engine maps every run's workers in one compression call, the master's
broadcasts in another, and the round oracle takes all runs' points at once;
a run that stops or diverges leaves the stack while the others go on. These
tests compare each stacked run with the same run made alone, byte for byte,
over every rule the sweeps can name, both masters, both init modes, and
d in {1, 8}, n in {1, 3}; and over a wide stack whose AdaCGD levels reach d/2.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adacgd.compressors import EF21, AdaCGD, ContractorSpec, IdentityMaster, adacgd_as_chain
from adacgd import engine
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.engine import DivergenceError, RunSpec, StopRule, run
from adacgd.experiments import RunConfig, record_to_row, run_experiment

# x1e200 overflows the penalty at round 1, so one run diverges in every stack,
# while the tolerance and the bit budget end others early.
MULTIPLIERS = (1.0, 8.0, 64.0, 1e200)


# The wide case: three clients at d = 300 give each run alone 900 worker
# entries and the stack of four runs 3600. Its levels reach d/2; with these
# budgets some levels fit every row in play and others only some.
WIDE_DIM = 300
WIDE_LEVELS = (1, 15, 150)
WIDE_ZETA, WIDE_RANDK_ZETA = 2.0, 16.0


def _levels(dim):
    return (1,) if dim == 1 else WIDE_LEVELS if dim == WIDE_DIM else (1, 3)


def _sweep_config(dim, n_clients, master, init_mode, out_dir):
    wide = dim == WIDE_DIM
    return RunConfig(
        dataset=f"synthetic:n=30,d={dim},seed=4,scale=2",
        n_clients=n_clients,
        methods=("gd", "ef21:k=1", "lag", "clag:k=1", "adacgd:klist=" + "|".join(map(str, _levels(dim)))),
        master=master,
        stepsize="nonconvex" if master == "identity" else "bidirectional",
        multipliers=MULTIPLIERS,
        init_mode=init_mode,
        max_rounds=20,
        grad_tol_sq=1e-3,
        bit_budget=400_000 if wide else 40_000,
        seed=6,
        zeta=WIDE_ZETA if wide else 1.0,
        out_dir=str(out_dir),
    )


def _extra_specs(dim):
    ks = _levels(dim)
    randk_zeta, zeta = (WIDE_RANDK_ZETA, WIDE_ZETA) if dim == WIDE_DIM else (1.0, 1.0)
    return {
        "adacgd_randk": AdaCGD(tuple(ContractorSpec.rand_k(k) for k in ks), randk_zeta),
        "adacgd_chain": adacgd_as_chain(tuple(ContractorSpec.top_k(k) for k in ks), zeta),
    }


def _assert_each_trace_has_its_bytes_alone(config, dim, tmp_path):
    result = run_experiment(config, extra_specs=_extra_specs(dim))
    statuses = {e.status for e in result.entries}
    assert statuses >= {"diverged", "unreached"}
    assert len(result.entries) == 7 * len(MULTIPLIERS)
    for mult in MULTIPLIERS:
        alone = run_experiment(replace(config, multipliers=(mult,), out_dir=str(tmp_path / f"x{mult:g}")),
                               extra_specs=_extra_specs(dim))
        for entry in alone.entries:
            stacked = tmp_path / "stacked" / Path(entry.trace_path).name
            assert stacked.read_bytes() == Path(entry.trace_path).read_bytes(), stacked.name


@pytest.mark.parametrize("init_mode", ["full", "compressed"])
@pytest.mark.parametrize("master", ["identity", "ef21:k=1"])
@pytest.mark.parametrize("n_clients", [1, 3])
@pytest.mark.parametrize("dim", [1, 8])
def test_every_stacked_trace_has_the_bytes_of_its_run_alone(tmp_path, dim, n_clients, master, init_mode):
    config = _sweep_config(dim, n_clients, master, init_mode, tmp_path / "stacked")
    _assert_each_trace_has_its_bytes_alone(config, dim, tmp_path)


@pytest.mark.parametrize("init_mode", ["full", "compressed"])
def test_a_wide_stacked_trace_has_the_bytes_of_its_run_alone(tmp_path, init_mode, monkeypatch):
    config = _sweep_config(WIDE_DIM, 3, f"ef21:k={WIDE_DIM // 10}", init_mode, tmp_path / "stacked")
    # Record how each probed AdaCGD level ends: every row in play fits, or some do.
    probe, ends = AdaCGD._probe, set()

    def recorded(out, j, c, h, x, delta, budget, rows, rngs):
        fits = probe(out, j, c, h, x, delta, budget, rows, rngs)
        if fits.any():
            ends.add((c.kind, "all" if fits.all() else "some"))
        return fits

    monkeypatch.setattr(AdaCGD, "_probe", staticmethod(recorded))
    _assert_each_trace_has_its_bytes_alone(config, WIDE_DIM, tmp_path)
    assert ends == {(kind, fit) for kind in ("topk", "randk") for fit in ("all", "some")}


def _rows(outcome):
    """A run's records as trace rows, and how it ended: (rows, None) or (rows of err.records, (round, reason))."""
    if isinstance(outcome, DivergenceError):
        return [record_to_row(r) for r in outcome.records], (outcome.round_index, outcome.reason)
    return [record_to_row(r) for r in outcome], None


def _alone(spec):
    try:
        return run(spec)
    except DivergenceError as err:
        return err


@pytest.mark.parametrize("stack_entries", [engine._STACK_MAX_ELEMENTS, 2 * 3 * 8], ids=["one-stack", "stacks-of-two"])
@pytest.mark.parametrize("init_mode", ["full", "compressed"])
def test_a_stack_with_a_rand_k_master_gives_each_run_its_records_alone(init_mode, stack_entries, monkeypatch):
    # No method label builds a rand-k master, so this stack is made in code. Its
    # runs also differ in stop rule and f_star, which a stack allows. With a
    # small entry budget, run splits them into stacks of two runs, then one.
    monkeypatch.setattr(engine, "_STACK_MAX_ELEMENTS", stack_entries)
    features, labels = make_synthetic(SyntheticSpec(40, 8, seed=2, scale=2.0))
    problem = build_problem(features, labels, 3, 0.1, seed=2)
    worker = AdaCGD((ContractorSpec.rand_k(1), ContractorSpec.top_k(3)), 1.0)
    master = EF21(ContractorSpec.rand_k(2))
    runs = [  # gamma, stop, f_star
        (0.5, StopRule(30), 0.0),
        (0.5, StopRule(30, grad_tol_sq=1e-2), 0.1),
        (1e200, StopRule(30), 0.0),  # diverges at round 1
        (2.0, StopRule(30, bit_budget=10_000), 0.0),
        (2.0, StopRule(12), 0.2),
    ]
    specs = [RunSpec(problem, worker, master, np.zeros(8), gamma, stop, seed=3, init_mode=init_mode, f_star=f_star)
             for gamma, stop, f_star in runs]
    outcomes = run(specs)
    for spec, outcome in zip(specs, outcomes):
        assert _rows(outcome) == _rows(_alone(spec))
    # The runs leave the stack at different rounds, each by its own stop rule.
    full, tol, diverged, budget, short = outcomes
    assert len(full) == 31 and len(short) == 13
    assert len(tol) < 31 and tol[-1].grad_norm_sq <= 1e-2
    assert (diverged.round_index, diverged.reason, len(diverged.records)) == (1, "objective", 1)
    assert len(budget) < 31 and budget[-1].uplink_bits + budget[-1].downlink_bits >= 10_000


def test_a_stack_rejects_runs_that_do_not_share_their_rules_and_start():
    problem = build_problem(*make_synthetic(SyntheticSpec(20, 4, seed=1)), 2, 0.1, seed=1)
    spec = RunSpec(problem, EF21(ContractorSpec.top_k(1)), IdentityMaster(), np.zeros(4), 0.5, StopRule(3))
    for other in (replace(spec, seed=1), replace(spec, x0=np.ones(4)), replace(spec, init_mode="compressed"),
                  replace(spec, worker_spec=EF21(ContractorSpec.top_k(2))), replace(spec, master_spec=spec.worker_spec)):
        with pytest.raises(ValueError, match="must share the problem, rules, x0, seed and init mode"):
            run([spec, other])
    assert len(run([spec, replace(spec, gamma=0.1, stop=StopRule(5), f_star=1.0)])[1]) == 6
    assert run([]) == []
