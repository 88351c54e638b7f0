import math
from pathlib import Path

import numpy as np
import pytest

from adacgd.cli import main as cli_main
from adacgd.compressors import AdaCGD, EF21, LAG, IdentityMaster
from adacgd.engine import IterationRecord
from adacgd.experiments import (
    RunConfig,
    build_dataset,
    default_klist,
    load_config,
    load_or_solve_reference,
    load_reference,
    method_spec,
    parse_config_text,
    read_trace,
    record_to_row,
    row_to_record,
    run_experiment,
    solve_reference,
    stepsize_rule,
    write_trace,
)
from adacgd.datasets import SyntheticSpec, build_problem, make_synthetic
from adacgd.problems import Problem, full_gradient


def test_parse_config_text_and_errors():
    values = parse_config_text(
        """
        # protocol config
        dataset = synthetic:n=100,d=8,seed=1
        methods = gd lag adacgd
        multipliers = 1, 2, 4
        lam = 0.1
        scale_features = true
        """
    )
    assert values["methods"] == ("gd", "lag", "adacgd")
    assert values["multipliers"] == (1.0, 2.0, 4.0)
    assert values["scale_features"] is True
    with pytest.raises(ValueError):
        parse_config_text("unknown_key = 3\n")
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")


def test_load_config_overrides_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = quadratic:diag=1|2,n=2\nseed = 3\n")
    config = load_config(str(cfg), {"seed": "7", "methods": "gd"})
    assert config.seed == 7
    assert config.methods == ("gd",)
    monkeypatch.setenv("ADACGD_OUT_DIR", str(tmp_path / "out"))
    config = load_config(str(cfg), {})
    assert config.out_dir == str(tmp_path / "out")


def test_method_spec_parsing():
    label, spec = method_spec("gd", 10, 1.0)
    assert label == "gd" and isinstance(spec, EF21) and spec.contractor.kind == "identity"
    label, spec = method_spec("ef21:k=3", 10, 1.0)
    assert isinstance(spec, EF21) and spec.contractor.k == 3
    label, spec = method_spec("lag:zeta=2", 10, 1.0)
    assert isinstance(spec, LAG) and spec.zeta == 2.0
    label, spec = method_spec("clag:k=2,zeta=0.5", 10, 1.0)
    assert spec.contractor.k == 2 and spec.zeta == 0.5
    label, spec = method_spec("adacgd:klist=1|2|5", 10, 1.0)
    assert isinstance(spec, AdaCGD)
    assert tuple(c.k for c in spec.contractors) == (1, 2, 5)
    label, spec = method_spec("identity", 10, 1.0)
    assert isinstance(spec, IdentityMaster)
    with pytest.raises(ValueError):
        method_spec("magic", 10, 1.0)
    with pytest.raises(ValueError):
        method_spec("adacgd:klist=5|2", 10, 1.0)


def test_default_klist_spans_skip_to_half():
    assert default_klist(50) == (1, 5, 25)
    assert default_klist(200) == (1, 2, 20, 100)
    assert default_klist(2) == (1,)


def test_klist_override_applies_to_adaptive_methods():
    _, spec = method_spec("adacgd", 50, 1.0, klist_override="1|3|9")
    assert tuple(c.k for c in spec.contractors) == (1, 3, 9)
    # an explicit method-level klist wins over the config override
    _, spec = method_spec("adacgd:klist=2|4", 50, 1.0, klist_override="1|3|9")
    assert tuple(c.k for c in spec.contractors) == (2, 4)
    # non-adaptive methods ignore it
    _, spec = method_spec("ef21:k=1", 50, 1.0, klist_override="1|3|9")
    assert isinstance(spec, EF21)


def test_synthetic_dataset_rejects_unknown_option():
    # "dim" is not a key: it used to be ignored, building d = 50
    with pytest.raises(ValueError, match="'dim'"):
        build_dataset(RunConfig(dataset="synthetic:n=40,dim=5", n_clients=2))


def test_quadratic_dataset_rejects_unknown_option():
    with pytest.raises(ValueError, match="'clients'"):
        build_dataset(RunConfig(dataset="quadratic:diag=1|2,clients=2"))


def test_ef21_rejects_unknown_option():
    # keys are case-sensitive: "K" used to be ignored, running k = 1
    with pytest.raises(ValueError, match="'K'"):
        method_spec("ef21:K=5", 10, 1.0)


def test_lag_rejects_unknown_option():
    # "z" used to be ignored, running zeta = 1
    with pytest.raises(ValueError, match="'z'"):
        method_spec("lag:z=3", 10, 1.0)


def test_clag_rejects_unknown_option():
    with pytest.raises(ValueError, match="'klist'"):
        method_spec("clag:klist=1|2", 10, 1.0)


def test_adacgd_rejects_unknown_option():
    with pytest.raises(ValueError, match="'k'"):
        method_spec("adacgd:k=2", 10, 1.0)


@pytest.mark.parametrize("label", ["gd:k=2", "identity:zeta=1"])
def test_optionless_methods_reject_any_option(label):
    with pytest.raises(ValueError, match="unknown option"):
        method_spec(label, 10, 1.0)


def test_stepsize_rule_names():
    assert stepsize_rule("convex").kind == "convex"
    assert stepsize_rule("manual:0.25").gamma == 0.25
    with pytest.raises(ValueError):
        stepsize_rule("sorcery")


def test_trace_row_round_trip():
    rec = IterationRecord(3, 0.125, 1e-7, 0.5, 0.75, 0.0, 1e-16, 1234, 5678, (2, 0, 1))
    assert row_to_record(record_to_row(rec)) == rec


def test_trace_file_round_trip(tmp_path):
    records = [
        IterationRecord(0, 1.0, 0.3, 1.0, 1.0, 0.0, 0.0, 100, 50, (0, 0)),
        IterationRecord(1, 0.5, 0.1, 0.6, 0.7, 0.01, 0.0, 180, 100, (1, 1)),
    ]
    path = tmp_path / "trace.csv"
    write_trace(path, records, {"method": "lag", "gamma": 0.5})
    meta, loaded = read_trace(path)
    assert loaded == records
    assert meta["method"] == "lag"
    assert float(meta["gamma"]) == 0.5


def test_build_dataset_variants(tmp_path):
    config = RunConfig(dataset="quadratic:diag=1|2|4,n=3")
    problem, digest = build_dataset(config)
    assert problem.kind == "quadratic" and problem.n_clients == 3
    assert len(digest) == 16

    libsvm = tmp_path / "tiny.txt"
    libsvm.write_text("+1 1:1 2:-0.5\n-1 2:2\n+1 1:0.25\n")
    config = RunConfig(dataset=str(libsvm), n_clients=3, lam=0.0)
    problem, _ = build_dataset(config)
    assert problem.dim == 2 and problem.n_clients == 3


def test_run_experiment_gd_quadratic_matches_closed_form(tmp_path):
    config = RunConfig(
        dataset="quadratic:diag=1|2,n=1",
        n_clients=1,
        methods=("gd",),
        multipliers=(1.0,),
        stepsize="convex",
        max_rounds=40,
        out_dir=str(tmp_path),
        seed=0,
    )
    result = run_experiment(config)
    assert len(result.entries) == 1
    meta, records = read_trace(Path(result.entries[0].trace_path))
    gamma = float(meta["gamma"])
    assert gamma == pytest.approx(0.5)
    # closed-form GD on the diagonal quadratic from x0 = ones
    x = np.ones(2)
    diag = np.array([1.0, 2.0])
    for rec in records:
        assert rec.f_value == pytest.approx(0.5 * float(diag @ (x * x)), rel=1e-12, abs=1e-300)
        x = x - gamma * diag * x


def test_run_experiment_deterministic_bytes(tmp_path):
    def run_once(where):
        config = RunConfig(
            dataset="synthetic:n=60,d=6,seed=3",
            n_clients=4,
            lam=0.1,
            methods=("lag", "adacgd"),
            multipliers=(1.0, 4.0),
            max_rounds=30,
            grad_tol_sq=1e-9,
            out_dir=str(where),
            seed=2,
        )
        return run_experiment(config)

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    for e1, e2 in zip(first.entries, second.entries):
        assert Path(e1.trace_path).read_bytes() == Path(e2.trace_path).read_bytes()
    assert Path(first.summary_path).read_bytes() == Path(second.summary_path).read_bytes()


def test_run_experiment_marks_divergence(tmp_path):
    config = RunConfig(
        dataset="quadratic:diag=1|1,n=1",
        n_clients=1,
        methods=("gd",),
        multipliers=(1.0, 1024.0),
        stepsize="convex",
        max_rounds=400,
        out_dir=str(tmp_path),
    )
    result = run_experiment(config)
    statuses = {e.multiplier: e.status for e in result.entries}
    assert statuses[1024.0] == "diverged"
    # the diverged trace still carries the partial trajectory
    diverged = next(e for e in result.entries if e.status == "diverged")
    meta, records = read_trace(Path(diverged.trace_path))
    assert meta["status"] == "diverged"
    assert len(records) >= 1


def test_summary_best_ignores_diverged(tmp_path):
    config = RunConfig(
        dataset="quadratic:diag=1|1,n=1",
        n_clients=1,
        methods=("gd",),
        multipliers=(1.0, 1024.0),
        stepsize="convex",
        max_rounds=400,
        grad_tol_sq=1e-10,
        out_dir=str(tmp_path),
    )
    result = run_experiment(config)
    assert result.best["gd"].multiplier == 1.0
    summary = Path(result.summary_path).read_text()
    assert "diverged" in summary and "best" in summary


def test_run_experiment_rejects_runs_sharing_a_trace_file(tmp_path):
    # Multipliers 1 and 1.0000001 both format as "x1", so their traces would collide.
    config = RunConfig(
        dataset="quadratic:diag=1|2,n=2",
        methods=("gd", "ef21:k=1"),
        multipliers=(1.0, 1.0000001),
        max_rounds=3,
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(ValueError) as err:
        run_experiment(config)
    message = str(err.value)
    assert "gd_x1.csv" in message
    assert "(gd, x1.0)" in message and "(gd, x1.0000001)" in message
    assert not (tmp_path / "out").exists()  # rejected before any run


@pytest.mark.parametrize("multipliers", [(1.0, -2.0), (1.0, 0.0), (math.nan,)])
def test_config_rejects_non_positive_multipliers(multipliers):
    # Rejected where the config is built, not after earlier runs wrote their traces.
    with pytest.raises(ValueError, match="multipliers must be positive"):
        RunConfig(dataset="quadratic:diag=1|2", multipliers=multipliers)


def test_trace_header_takes_lam_and_clients_from_the_problem(tmp_path):
    config = RunConfig(dataset="quadratic:diag=1|2,n=3", n_clients=20, lam=0.3, max_rounds=2, out_dir=str(tmp_path))
    meta, _ = read_trace(Path(run_experiment(config).entries[0].trace_path))
    assert meta["lam"] == "0.0"
    assert meta["n_clients"] == "3"


def test_reference_solver_quadratic_exact():
    ref = solve_reference(Problem.quadratic([1.0, 2.0]), 1e-10)
    assert ref.f_star == 0.0
    assert np.array_equal(ref.x_star, np.zeros(2))


def test_reference_cache_round_trip(tmp_path):
    features, labels = make_synthetic(SyntheticSpec(40, 4, 5))
    p = build_problem(features, labels, 2, 0.0, 0)
    ref = load_or_solve_reference(p, 1e-8, tmp_path)
    assert math.sqrt(float(full_gradient(p, ref.x_star) @ full_gradient(p, ref.x_star))) <= 1e-8
    again = load_or_solve_reference(p, 1e-8, tmp_path)
    assert again.f_star == ref.f_star
    assert np.array_equal(again.x_star, ref.x_star)

    resolved = solve_reference(p, 1e-8)
    assert abs(resolved.f_star - ref.f_star) <= 1e-9


def test_reference_cache_keyed_on_the_problem(tmp_path):
    # Same source data, so the same dataset hash, but three different objectives.
    dataset = "synthetic:n=100,d=5,seed=1,scale=3"
    problems = []
    for n_clients, scale in ((20, False), (20, True), (7, False)):
        problem, dataset_hash = build_dataset(RunConfig(dataset=dataset, n_clients=n_clients, scale_features=scale))
        problems.append((problem, dataset_hash))
    assert len({h for _, h in problems}) == 1
    cached = [load_or_solve_reference(p, 1e-8, tmp_path) for p, _ in problems]
    assert len(list(tmp_path.glob("ref_*.txt"))) == 3
    for (p, _), ref in zip(problems, cached):
        assert ref.f_star == solve_reference(p, 1e-8).f_star
        assert load_or_solve_reference(p, 1e-8, tmp_path).f_star == ref.f_star
    assert len({ref.f_star for ref in cached}) == 3


def test_reference_cache_resolves_for_a_tighter_tolerance(tmp_path):
    problem, _ = build_dataset(RunConfig(dataset="synthetic:n=100,d=5,seed=1,scale=3", n_clients=7))
    loose = load_or_solve_reference(problem, 1e-3, tmp_path)
    assert loose.tolerance == 1e-3
    tight = load_or_solve_reference(problem, 1e-8, tmp_path)
    assert tight.tolerance == 1e-8
    assert tight.grad_norm <= 1e-8 < loose.grad_norm
    assert tight.f_star == solve_reference(problem, 1e-8).f_star
    # The tighter solve replaced the cached one and serves looser requests too.
    again = load_or_solve_reference(problem, 1e-4, tmp_path)
    assert again.tolerance == 1e-8 and np.array_equal(again.x_star, tight.x_star)
    assert len(list(tmp_path.glob("ref_*.txt"))) == 1


def test_reference_cap_warns(tmp_path):
    features, labels = make_synthetic(SyntheticSpec(40, 4, 5))
    p = build_problem(features, labels, 2, 0.0, 0)
    with pytest.warns(RuntimeWarning):
        ref = solve_reference(p, 1e-12, max_rounds=3)
    assert ref.tolerance > 1e-12  # achieved tolerance recorded


def test_cli_run_and_verify(tmp_path, capsys):
    rc = cli_main(
        [
            "run",
            "--dataset", "quadratic:diag=1|2,n=2",
            "--n-clients", "2",
            "--method", "gd",
            "--multipliers", "1",
            "--stepsize", "convex",
            "--stop", "rounds=5",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary" in out
    assert (tmp_path / "gd_x1.csv").exists()

    rc = cli_main(["verify", "gradients", "--trials", "6"])
    assert rc == 0


def test_cli_sweep_keeps_config_file_multipliers(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        "dataset = quadratic:diag=1|2,n=2\nmethods = gd\nmultipliers = 1 2\n"
        f"max_rounds = 3\nout_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("gd_x*.csv")) == ["gd_x1.csv", "gd_x2.csv"]


def test_cli_verify_exit_code_reflects_failures(monkeypatch, capsys):
    from adacgd import verification

    def broken_suite(seed, trials):
        return [verification.PropertyResult("always-fails", False, -1.0)]

    monkeypatch.setitem(verification.SUITES, "gradients", broken_suite)
    rc = cli_main(["verify", "gradients"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_solve_reference(tmp_path, capsys):
    rc = cli_main(
        [
            "solve-reference",
            "--dataset", "synthetic:n=30,d=4,seed=2",
            "--n-clients", "2",
            "--lam", "0.1",
            "--tolerance", "1e-6",
            "--cache-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    cached = list(tmp_path.glob("ref_*.txt"))
    assert len(cached) == 1
    lam, ref = load_reference(cached[0])
    assert lam == 0.1
    assert ref.grad_norm <= 1e-6


def test_cli_solve_reference_records_the_problem_lam(tmp_path):
    args = ["solve-reference", "--dataset", "quadratic:diag=1|2", "--lam", "0.3", "--cache-dir", str(tmp_path)]
    assert cli_main(args) == 0
    lam, ref = load_reference(next(tmp_path.glob("ref_*.txt")))
    assert lam == 0.0
    assert ref.f_star == 0.0


@pytest.mark.parametrize(
    "dataset,method,message",
    [
        ("synthetic:n=20,d=5,seed=1", "ef21:k=6", "k=6 exceeds dimension 5"),
        ("quadratic:diag=0|0", "gd", "all-zero diagonal"),
        ("missing.svm", "gd", "No such file or directory"),
    ],
    ids=["k-above-dimension", "zero-quadratic", "missing-file"],
)
def test_cli_reports_bad_input_in_one_line(tmp_path, monkeypatch, capsys, dataset, method, message):
    monkeypatch.chdir(tmp_path)  # "missing.svm" is looked up in an empty directory
    args = ["run", "--dataset", dataset, "--n-clients", "2", "--method", method, "--stop", "rounds=2"]
    rc = cli_main(args + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("adacgd: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_runs_topk_at_full_dimension(tmp_path):
    args = ["run", "--dataset", "synthetic:n=20,d=5,seed=1", "--n-clients", "2", "--method", "ef21:k=5"]
    assert cli_main(args + ["--stop", "rounds=2", "--out-dir", str(tmp_path)]) == 0
    _, records = read_trace(tmp_path / "ef21_k5_x1.csv")
    assert [r.round for r in records] == [0, 1, 2]
