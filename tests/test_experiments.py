import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adacgd.cli import main as cli_main
from adacgd import engine, experiments
from adacgd.compressors import AdaCGD, ContractorSpec, EF21, LAG, IdentityMaster
from adacgd.engine import IterationRecord, resolve_stepsize
from adacgd.experiments import (
    RunConfig,
    build_dataset,
    default_klist,
    initial_point,
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
    # The output directory comes from out_dir alone: the environment never sets it.
    monkeypatch.delenv("ADACGD_OUT_DIR", raising=False)
    unset = load_config(str(cfg), {"out_dir": str(tmp_path / "chosen")})
    monkeypatch.setenv("ADACGD_OUT_DIR", str(tmp_path / "env"))
    assert load_config(str(cfg), {"out_dir": str(tmp_path / "chosen")}) == unset
    assert load_config(str(cfg)).out_dir == "traces"


def test_sweep_writes_only_under_its_out_dir_with_the_old_environment_variable_set(tmp_path, monkeypatch):
    monkeypatch.setenv("ADACGD_OUT_DIR", str(tmp_path / "env"))
    args = ["run", "--dataset", "quadratic:diag=1|2,n=2", "--method", "gd", "--stop", "rounds=2"]
    assert cli_main(args + ["--out-dir", str(tmp_path / "chosen")]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"chosen"}
    assert {p.name for p in (tmp_path / "chosen").iterdir()} == {"gd_x1.csv", "summary.csv"}


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


def test_stepsize_rule_names(tmp_path):
    def sweep_gamma(stepsize):
        config = RunConfig(dataset="quadratic:diag=1|2", stepsize=stepsize, max_rounds=0, out_dir=str(tmp_path))
        return run_experiment(config).entries[0].gamma

    problem = Problem.quadratic(np.array([1.0, 2.0]))
    assert sweep_gamma(" Convex ") == resolve_stepsize("convex", problem, EF21(ContractorSpec.identity()), IdentityMaster())
    assert sweep_gamma("manual:0.25") == 0.25
    with pytest.raises(ValueError, match="choose from convex, nonconvex, pl, bidirectional or manual:<gamma>"):
        RunConfig(dataset="quadratic:diag=1|2", stepsize="sorcery")


def test_sweep_resolves_each_method_stepsize_once(tmp_path, monkeypatch):
    # Every method's theory stepsize comes from one smoothness pass per sweep; a manual stepsize needs none.
    calls = []
    real_smoothness = engine.smoothness
    for module in (engine, experiments):
        monkeypatch.setattr(module, "smoothness", lambda problem: calls.append(problem) or real_smoothness(problem))
    config = RunConfig(dataset="synthetic:n=60,d=8", n_clients=3, methods=("gd", "adacgd"),
                       multipliers=(1.0, 2.0, 4.0), max_rounds=2, out_dir=str(tmp_path))
    assert len(run_experiment(config).entries) == 6
    assert len(calls) == 1
    bidirectional = replace(config, methods=("gd", "ef21:k=2", "adacgd"), master="ef21:k=3", stepsize="bidirectional")
    assert len(run_experiment(bidirectional).entries) == 9
    assert len(calls) == 2
    assert len(run_experiment(replace(config, stepsize="manual:0.1")).entries) == 6
    assert len(calls) == 2


@pytest.mark.parametrize("stepsize", ["manual:nan", "manual:inf", "manual:-inf", "manual:0", "manual:-1"])
def test_config_rejects_a_manual_stepsize_that_is_not_positive_and_finite(stepsize):
    with pytest.raises(ValueError, match="manual stepsize must be positive and finite"):
        RunConfig(dataset="quadratic:diag=1|2", stepsize=stepsize)


@pytest.mark.parametrize(
    "flag,value,message",
    [("--stepsize", "manual:nan", "got nan"), ("--multipliers", "1 inf", "got (1.0, inf)")],
    ids=["manual-nan", "multiplier-inf"],
)
def test_cli_rejects_non_finite_stepsize_inputs(tmp_path, capsys, flag, value, message):
    args = ["run", "--dataset", "quadratic:diag=1|2", "--method", "gd", "--stop", "rounds=3", flag, value]
    assert cli_main(args + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("adacgd: error: ") and message in err and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def _cli_stop_error(tmp_path, capsys, stop):
    args = ["run", "--dataset", "quadratic:diag=1|2", "--method", "gd", "--stop", stop, "--out-dir", str(tmp_path)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("adacgd: error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))
    return err


def test_cli_rejects_negative_max_rounds(tmp_path, capsys):
    assert "max_rounds must be >= 0, got -5" in _cli_stop_error(tmp_path, capsys, "rounds=-5")


def test_cli_rejects_nan_grad_tolerance(tmp_path, capsys):
    assert "grad_tol_sq must be a number >= 0, got nan" in _cli_stop_error(tmp_path, capsys, "rounds=3,grad=nan")


def test_cli_rejects_negative_grad_tolerance(tmp_path, capsys):
    assert "grad_tol_sq must be a number >= 0, got -1.0" in _cli_stop_error(tmp_path, capsys, "rounds=3,grad=-1")


@pytest.mark.parametrize("bits", ["0", "-10"])
def test_cli_rejects_a_bit_budget_below_one(tmp_path, capsys, bits):
    assert f"bit_budget must be >= 1, got {bits}" in _cli_stop_error(tmp_path, capsys, f"rounds=3,bits={bits}")


def test_zero_rounds_and_zero_grad_tolerance_stay_valid(tmp_path):
    config = RunConfig(dataset="quadratic:diag=1|2", max_rounds=0, grad_tol_sq=0.0, out_dir=str(tmp_path))
    (entry,) = run_experiment(config).entries
    assert entry.rounds == 0


def _cli_run_error(tmp_path, capsys, *args):
    out_dir = tmp_path / "out"
    assert cli_main(["run", *args, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("adacgd: error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_cli_rejects_a_lam_that_is_not_finite(tmp_path, capsys, lam):
    err = _cli_run_error(tmp_path, capsys, "--dataset", "synthetic:n=40,d=5", "--n-clients", "4", "--lam", lam,
                         "--stepsize", "manual:0.1", "--method", "gd", "--stop", "rounds=3")
    assert err == f"adacgd: error: regularization weight lam must be finite and >= 0, got {lam}\n"


def test_cli_rejects_a_nan_zeta(tmp_path, capsys):
    err = _cli_run_error(tmp_path, capsys, "--dataset", "synthetic:n=40,d=5", "--zeta", "nan", "--method", "gd",
                         "--stop", "rounds=3")
    assert err == "adacgd: error: trigger zeta must be finite and >= 0, got nan\n"


@pytest.mark.parametrize(
    "label,message",
    [
        ("ef21:k=0", "k must be a positive integer, got 0"),
        ("lag:zeta=-1", "trigger zeta must be finite and >= 0, got -1.0"),
        ("adacgd:klist=0|2", "k must be a positive integer, got 0"),
    ],
    ids=["ef21-k0", "lag-negative-zeta", "adacgd-level0"],
)
def test_cli_rejects_an_out_of_range_label_value_before_any_data_is_read(tmp_path, capsys, label, message):
    missing = tmp_path / "missing.svm"  # never read: the label fails first
    err = _cli_run_error(tmp_path, capsys, "--dataset", str(missing), "--method", label, "--stop", "rounds=3")
    assert err == f"adacgd: error: {message}\n"


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--seed", "-1", "seed must be an unsigned 64-bit integer"),
        ("--seed", str(2**64), "seed must be an unsigned 64-bit integer"),
        ("--n-clients", "0", "need at least one client, got n_clients=0"),
    ],
    ids=["seed-negative", "seed-2^64", "no-clients"],
)
@pytest.mark.parametrize("dataset", ["libsvm", "quadratic"])
def test_cli_rejects_an_out_of_range_seed_or_client_count_before_any_data_is_read(tmp_path, capsys, dataset, option,
                                                                                  value, message):
    # The LIBSVM file is missing and never read; the quadratic set would run to the end if the config let it.
    spec = str(tmp_path / "missing.svm") if dataset == "libsvm" else "quadratic:diag=1|2"
    err = _cli_run_error(tmp_path, capsys, "--dataset", spec, option, value, "--method", "gd", "--stop", "rounds=3")
    assert err == f"adacgd: error: {message}\n"


def test_config_accepts_the_seed_and_client_count_bounds():
    RunConfig(dataset="quadratic:diag=1|2", seed=2**64 - 1, n_clients=1)
    RunConfig(dataset="quadratic:diag=1|2", seed=0)


def test_config_file_init_mode_is_checked_before_any_data_is_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = synthetic:n=40,d=5\nmethods = gd\ninit_mode = Full\n")
    err = _cli_run_error(tmp_path, capsys, "--config", str(cfg))
    assert err == "adacgd: error: unknown init mode 'Full'; choose from full, compressed\n"


@pytest.mark.parametrize("value", ["ture", "2", ""])
def test_config_rejects_an_unknown_boolean_spelling(value):
    with pytest.raises(ValueError, match=f"^config line 2: cannot parse scale_features='{value}'$"):
        parse_config_text(f"dataset = quadratic:diag=1|2\nscale_features = {value}\n")


@pytest.mark.parametrize(
    "x0,message",
    [
        ("abc", "cannot parse x0='abc'"),
        ("", "cannot parse x0=''"),
        ("nan", "x0 must be default, zeros, ones or a finite number, got 'nan'"),
        ("-inf", "x0 must be default, zeros, ones or a finite number, got '-inf'"),
    ],
)
def test_config_rejects_an_x0_that_is_not_a_name_or_finite_number(x0, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig(dataset="quadratic:diag=1|2", x0=x0)


@pytest.mark.parametrize("x0,expected", [("default", 1.0), ("zeros", 0.0), ("ones", 1.0), ("-2.5", -2.5)])
def test_config_x0_values(x0, expected):
    config = RunConfig(dataset="quadratic:diag=1|2", x0=x0)
    problem, _ = build_dataset(config)
    assert np.array_equal(initial_point(config, problem), np.full(2, expected))


def test_sweep_rejects_an_overflowing_stepsize_before_any_run(tmp_path):
    config = RunConfig(dataset="quadratic:diag=1|2", stepsize="manual:1e300", multipliers=(1.0, 1e10),
                       max_rounds=2, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="stepsize must be positive and finite, got inf"):
        run_experiment(config)
    assert not list(tmp_path.glob("*.csv"))


def test_config_file_value_that_does_not_parse_names_its_key_and_line(tmp_path):
    with pytest.raises(ValueError, match=r"^config line 2: cannot parse zeta='x'$"):
        parse_config_text("dataset = quadratic:diag=1|2\nzeta = x\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dataset = quadratic:diag=1|2\n\nmultipliers = 1 2 y\n")
    with pytest.raises(ValueError, match=r"^config line 3: cannot parse multipliers='1 2 y'$"):
        load_config(str(cfg))


def test_cli_value_that_does_not_parse_names_its_key(tmp_path, capsys):
    args = ["run", "--dataset", "quadratic:diag=1|2", "--method", "gd", "--stop", "rounds=abc"]
    assert cli_main(args + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "adacgd: error: cannot parse max_rounds='abc'\n"


@pytest.mark.parametrize(
    "dataset,message",
    [
        ("synthetic:n=abc", "cannot parse n='abc'"),
        ("synthetic:d=8,cond=high", "cannot parse cond='high'"),
        ("quadratic:diag=1|x", "cannot parse diag='1|x'"),
        ("quadratic:diag=1|2,n=2.5", "cannot parse n='2.5'"),
    ],
)
def test_dataset_option_that_does_not_parse_names_its_key(dataset, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_dataset(RunConfig(dataset=dataset))


@pytest.mark.parametrize(
    "label,message",
    [
        ("ef21:k=x", "cannot parse k='x'"),
        ("clag:k=1,zeta=?", r"cannot parse zeta='\?'"),
        ("adacgd:klist=1|two", r"cannot parse klist='1\|two'"),
    ],
)
def test_method_option_that_does_not_parse_names_its_key(label, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        method_spec(label, 10, 1.0)


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


any_float = st.floats(allow_nan=True, allow_infinity=True)
any_record = st.builds(
    IterationRecord,
    st.integers(0, 10**6),
    any_float, any_float, any_float, any_float, any_float, any_float,
    st.integers(0, 2**62),
    st.integers(0, 2**62),
    st.lists(st.integers(0, 10**4), max_size=6).map(tuple),  # empty, one- or multi-branch
)


@settings(deadline=None)
@given(st.lists(any_record, max_size=5))
def test_trace_file_round_trips_any_records(records):
    with tempfile.TemporaryDirectory() as where:
        path = Path(where) / "trace.csv"
        write_trace(path, records, {"method": "gd", "gamma": 0.5})
        meta, loaded = read_trace(path)
    assert repr(loaded) == repr(records)  # repr, so that nan compares equal to nan
    assert meta == {"method": "gd", "gamma": "0.5"}


# One line of config text: no comment marker and no line break.
config_text = st.text(st.characters(blacklist_characters="#", blacklist_categories=("Cc", "Zl", "Zp", "Cs")))
config_token = config_text.filter(lambda t: t.split() == [t])
# Keyed by RunConfig's field annotations.
_RENDERED_CONFIG_VALUE = {
    "str": config_text.map(str.strip).map(lambda v: (v, v)),
    "int": st.integers().map(lambda v: (str(v), v)),
    "float": any_float.map(lambda v: (repr(v), v)),
    "tuple[float, ...]": st.lists(any_float, max_size=4).map(lambda vs: (", ".join(map(repr, vs)), tuple(vs))),
    "tuple[str, ...]": st.lists(config_token, max_size=4).map(lambda ts: (" ".join(ts), tuple(ts))),
    "bool": st.sampled_from(
        [("true", True), ("Yes", True), ("1", True), ("ON", True),
         ("off", False), ("no", False), ("0", False), ("False", False)]
    ),
}
_RENDERED_CONFIG_VALUE["Optional[int]"] = _RENDERED_CONFIG_VALUE["int"]
_RENDERED_CONFIG_VALUE["Optional[float]"] = _RENDERED_CONFIG_VALUE["float"]


@given(st.fixed_dictionaries({f.name: st.none() | _RENDERED_CONFIG_VALUE[f.type] for f in fields(RunConfig)}))
def test_config_text_round_trips_every_key(rendered):
    rendered = {key: pair for key, pair in rendered.items() if pair is not None}
    text = "".join(f"{key} = {text}\n" for key, (text, _) in rendered.items())
    assert repr(parse_config_text(text)) == repr({key: value for key, (_, value) in rendered.items()})


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


# Header lines of a 1-round sweep, pinned from the implementation that wrapped
# the stepsize in a rule object: the theory stepsize per method times each
# multiplier, and the certified constants of worker and master.
_SWEEP_HEADER_PINS = [
    ('convex', 'synthetic:n=60,d=8', 'identity', (1.0, 0.0), {
        'gd': ((1.0, 0.0), (0.44593397104519256, 1.3378019131355776, 28.539774146892324)),
        'ef21_k2': ((0.13397459621556135, 5.598076211353316), (0.043942749302782594, 0.1318282479083478, 2.812335955378086)),
        'adacgd_z1': ((0.06458565330651465, 13.547900426854397), (0.02074406237806002, 0.062232187134180064, 1.3276199921958414)),
    }),
    ('nonconvex', 'synthetic:n=60,d=8', 'identity', (1.0, 0.0), {
        'gd': ((1.0, 0.0), (0.44593397104519256, 1.3378019131355776, 28.539774146892324)),
        'ef21_k2': ((0.13397459621556135, 5.598076211353316), (0.05970735738355972, 0.17912207215067916, 3.821270872547822)),
        'adacgd_z1': ((0.06458565330651465, 13.547900426854397), (0.02878194978961228, 0.08634584936883684, 1.8420447865351859)),
    }),
    ('bidirectional', 'synthetic:n=60,d=8', 'ef21:k=2', (0.13397459621556135, 5.598076211353316), {
        'gd': ((1.0, 0.0), (0.02647290978954603, 0.07941872936863809, 1.6942662265309458)),
        'ef21_k2': ((0.13397459621556135, 5.598076211353316), (0.003033581843172246, 0.009100745529516738, 0.19414923796302375)),
        'adacgd_z1': ((0.06458565330651465, 13.547900426854397), (0.0019287924887592216, 0.005786377466277665, 0.12344271928059018)),
    }),
    ('manual:0.05', 'synthetic:n=60,d=8', 'identity', (1.0, 0.0), {
        'gd': ((1.0, 0.0), (0.05, 0.15000000000000002, 3.2)),
        'ef21_k2': ((0.13397459621556135, 5.598076211353316), (0.05, 0.15000000000000002, 3.2)),
        'adacgd_z1': ((0.06458565330651465, 13.547900426854397), (0.05, 0.15000000000000002, 3.2)),
    }),
    ('pl', 'quadratic:diag=1|2|4,n=3', 'identity', (1.0, 0.0), {
        'gd': ((1.0, 0.0), (0.25, 0.75, 16.0)),
        'ef21_k2': ((0.4226497308103742, 0.788675134594813), (0.08527034435052722, 0.25581103305158165, 5.457302038433742)),
        'adacgd_z1': ((0.18350341907227397, 3.6329931618554525), (0.034281661261437626, 0.10284498378431288, 2.194026320732008)),
    }),
]


@pytest.mark.parametrize(
    "stepsize,dataset,master,master_c,methods",
    _SWEEP_HEADER_PINS,
    ids=[case[0] for case in _SWEEP_HEADER_PINS],
)
def test_sweep_header_stepsize_and_constants_pinned(tmp_path, stepsize, dataset, master, master_c, methods):
    config = RunConfig(dataset=dataset, n_clients=3, methods=("gd", "ef21:k=2", "adacgd"), master=master,
                       stepsize=stepsize, multipliers=(1.0, 3.0, 64.0), max_rounds=1, out_dir=str(tmp_path))
    run_experiment(config)
    for label, (worker_c, gammas) in methods.items():
        for mult, gamma in zip((1, 3, 64), gammas):
            header = [line for line in (tmp_path / f"{label}_x{mult}.csv").read_text().splitlines()
                      if line.startswith(("# gamma ", "# worker_constants ", "# master_constants "))]
            assert header == [
                f"# gamma = {gamma!r}",
                "# worker_constants = ThreePCConstants(a={!r}, b={!r})".format(*worker_c),
                "# master_constants = ThreePCConstants(a={!r}, b={!r})".format(*master_c),
            ]


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


@pytest.mark.parametrize("multipliers", [(1.0, -2.0), (1.0, 0.0), (math.nan,), (1.0, math.inf), (-math.inf,)])
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


def test_cli_run_uses_the_protocol_file_multipliers(tmp_path, monkeypatch):
    # The command in scripts/protocol.cfg's header, cut to one round.
    cfg = str(Path(__file__).resolve().parents[1] / "scripts" / "protocol.cfg")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", cfg, "--stop", "rounds=1", "--out-dir", str(out)]) == 0
    config = load_config(cfg)
    labels = [method_spec(m, 50, config.zeta)[0] for m in config.methods]
    traces = {f"{label}_x{mult:g}.csv" for label in labels for mult in config.multipliers}
    assert len(traces) == 45
    assert {p.name for p in out.iterdir()} == traces | {"summary.csv"}


def test_value_bits_is_not_a_config_key_or_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = quadratic:diag=1|2,n=2\nvalue_bits = 32\n")
    with pytest.raises(ValueError, match="^config line 2: unknown key 'value_bits'$"):
        load_config(str(cfg))
    args = ["run", "--dataset", "quadratic:diag=1|2", "--value-bits", "32", "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exit_info:
        cli_main(args)
    assert exit_info.value.code == 2


def test_cli_verify_exit_code_reflects_failures(monkeypatch, capsys):
    from adacgd import verification

    def broken_suite(seed, trials):
        return [verification.PropertyResult("always-fails", False, -1.0)]

    monkeypatch.setitem(verification.SUITES, "gradients", broken_suite)
    rc = cli_main(["verify", "gradients"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("suite,trials", [("compressors", "0"), ("lyapunov", "-3")])
def test_cli_verify_rejects_trials_below_one_before_any_suite(capsys, suite, trials):
    assert cli_main(["verify", suite, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"adacgd: error: trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("suite,trials", [("compressors", 0), ("lyapunov", -3)])
def test_run_suite_rejects_trials_below_one(suite, trials):
    from adacgd import verification

    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        verification.run_suite(suite, trials=trials)


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


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0", "-1e-6"])
def test_cli_solve_reference_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys, tolerance):
    cache = tmp_path / "cache"
    args = ["solve-reference", "--dataset", "synthetic:n=60,d=5,seed=1", "--n-clients", "3",
            f"--tolerance={tolerance}", "--cache-dir", str(cache)]
    assert cli_main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"adacgd: error: tolerance must be finite and > 0, got {float(tolerance)}\n"
    assert not cache.exists()


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0])
def test_reference_solvers_reject_a_bad_tolerance_before_touching_the_cache(tmp_path, tolerance):
    problem = Problem.quadratic(np.array([1.0, 2.0]))
    path = experiments.reference_cache_path(tmp_path, problem)
    experiments.save_reference(path, problem, solve_reference(problem, 1e-6))
    cached = path.read_bytes()
    message = f"^tolerance must be finite and > 0, got {tolerance}$"
    with pytest.raises(ValueError, match=message):
        solve_reference(problem, tolerance)
    with pytest.raises(ValueError, match=message):
        load_or_solve_reference(problem, tolerance, tmp_path)
    assert path.read_bytes() == cached


@pytest.mark.parametrize(
    "args,config_text,message",
    [
        (["--dataset", "quadratic:diag=1|2", "--method", "gd", "--stop", "rounds=10,rounds=3000"], None,
         "option 'rounds' is given twice in 'rounds=10,rounds=3000'"),
        (["--dataset", "synthetic:n=40,d=5", "--method", "ef21:k=1,k=2", "--stop", "rounds=3"], None,
         "option 'k' is given twice in 'k=1,k=2'"),
        (["--dataset", "synthetic:n=10,n=20", "--method", "gd", "--stop", "rounds=3"], None,
         "option 'n' is given twice in 'n=10,n=20'"),
        (["--stop", "rounds=3"], "dataset = quadratic:diag=1|2\nzeta = 1\nmethods = lag\nzeta = 4\n",
         "config lines 2 and 4: key 'zeta' is given twice"),
    ],
    ids=["stop", "method-label", "dataset-spec", "config-file"],
)
def test_cli_rejects_a_key_given_twice(tmp_path, capsys, args, config_text, message):
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        args = ["--config", str(cfg), *args]
    assert _cli_run_error(tmp_path, capsys, *args) == f"adacgd: error: {message}\n"


@pytest.mark.parametrize(
    "dataset,method,message",
    [
        ("synthetic:n=20,d=5,seed=1", "ef21:k=6", "k=6 exceeds dimension 5"),
        ("quadratic:diag=0|0", "gd", "all-zero diagonal"),
        ("missing.svm", "gd", "No such file or directory"),
        ("bad.svm", "gd", "line 2: invalid UTF-8 byte 0xff"),
    ],
    ids=["k-above-dimension", "zero-quadratic", "missing-file", "not-utf8"],
)
def test_cli_reports_bad_input_in_one_line(tmp_path, monkeypatch, capsys, dataset, method, message):
    monkeypatch.chdir(tmp_path)  # "missing.svm" is looked up in a directory that holds only "bad.svm"
    (tmp_path / "bad.svm").write_bytes(b"+1 1:1\n-1 2:1 3:\xff\n")
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


@pytest.mark.parametrize(
    "args,message",
    [
        (["--dataset", "/nonexistent.svm", "--master", "bogus", "--method", "gd"], "unknown method 'bogus'"),
        (["--dataset", "synthetic:n=200000,d=200", "--method", "gd ef21:K=1"], "unknown option 'K'; accepted: k"),
        (["--dataset", "synthetic:n=40,d=5", "--method", "gd adacgd:klist=5|2"],
         "adaptive k-list must be sorted ascending, got (5, 2)"),
        (["--dataset", "synthetic:n=40,d=5", "--method", "gd adacgd:klist=1|two"], "cannot parse klist='1|two'"),
        (["--dataset", "synthetic:n=40,d=5", "--method", "lag:zeta=x"], "cannot parse zeta='x'"),
        (["--dataset", "synthetic:n=40,d=5", "--method", "adacgd:klist=1|1|5"],
         "adaptive k-list repeats level 1, got (1, 1, 5)"),
    ],
    ids=["unknown-master", "unknown-option", "descending-klist", "unparsed-klist", "unparsed-zeta", "repeated-klist"],
)
def test_cli_rejects_a_bad_method_label_before_building_the_dataset(tmp_path, monkeypatch, capsys, args, message):
    built = []
    original = experiments.build_dataset
    monkeypatch.setattr(experiments, "build_dataset", lambda config: built.append(config) or original(config))
    out = tmp_path / "out"
    assert cli_main(["run", *args, "--stop", "rounds=2", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"adacgd: error: {message}\n"
    assert built == [] and not out.exists()


@pytest.mark.parametrize(
    "stop,message",
    [
        ("rounds=3,iters=4", "unknown option 'iters'; accepted: rounds, grad, bits"),
        ("rounds", "expected key=value in options, got 'rounds'"),
    ],
)
def test_cli_rejects_a_bad_stop_component(tmp_path, capsys, stop, message):
    args = ["run", "--dataset", "quadratic:diag=1|2", "--method", "gd", "--stop", stop, "--out-dir", str(tmp_path)]
    assert cli_main(args) == 2
    assert capsys.readouterr().err == f"adacgd: error: {message}\n"


@pytest.mark.parametrize("line", ["1,2.0,3.0", "0,1.0,1.0,1.0,1.0,0.0,0.0,8,0,1,2"], ids=["short", "long"])
def test_row_to_record_rejects_a_wrong_field_count(line):
    count = line.count(",") + 1
    with pytest.raises(ValueError, match=f"^trace row has {count} fields, expected 10$"):
        row_to_record(line)


def test_read_trace_rejects_a_wrong_column_header(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [IterationRecord(0, 1.0, 0.3, 1.0, 1.0, 0.0, 0.0, 100, 50, (1,))], {"method": "gd"})
    path.write_text(path.read_text().replace("branch_hist", "branch_histogram"))
    with pytest.raises(ValueError, match="unexpected trace header"):
        read_trace(path)


def _damage_reference(path: Path, how: str) -> None:
    text = path.read_text()
    if how == "cut-after-f_star":
        path.write_text(text[: text.index("x_star")])
    elif how == "short-x_star":
        path.write_text(text.rsplit(" ", 1)[0] + "\n")
    elif how == "unparsed-f_star":
        path.write_text(text.replace("f_star = ", "f_star = x"))
    elif how == "repeated-f_star":  # read last-wins, this would pass off f = 0 as the minimum
        path.write_text(text + "f_star = 0.0\n")
    else:  # a line with no '='
        path.write_text(text + "garbage\n")


@pytest.mark.parametrize("how", ["cut-after-f_star", "short-x_star", "unparsed-f_star", "repeated-f_star", "no-equals"])
def test_solve_reference_re_solves_a_damaged_cache_file(tmp_path, capsys, how):
    args = ["solve-reference", "--dataset", "synthetic:n=30,d=4,seed=2", "--n-clients", "2", "--lam", "0.1",
            "--tolerance", "1e-6", "--cache-dir", str(tmp_path)]
    assert cli_main(args) == 0
    path = next(tmp_path.glob("ref_*.txt"))
    fresh = path.read_bytes()
    _damage_reference(path, how)
    assert cli_main(args) == 0
    assert path.read_bytes() == fresh


@pytest.mark.parametrize(
    "how,message",
    [
        ("cut-after-f_star", ": missing key 'x_star'$"),
        ("unparsed-f_star", ": cannot parse f_star='x"),
        ("no-equals", r" line 8: expected 'key = value', got 'garbage'$"),
        ("repeated-f_star", r" lines 6 and 8: key 'f_star' is given twice$"),
    ],
)
def test_load_reference_names_the_file_and_the_bad_key(tmp_path, how, message):
    problem = Problem.quadratic(np.array([1.0, 2.0]))
    path = tmp_path / "ref.txt"
    experiments.save_reference(path, problem, solve_reference(problem, 1e-6))
    _damage_reference(path, how)
    with pytest.raises(ValueError, match=f"^reference cache {re.escape(str(path))}{message}"):
        load_reference(path)


_SPARSE_IMPORT_PROBE = """
import sys
from adacgd.experiments import RunConfig, run_experiment
from adacgd.problems import Problem
run_experiment(RunConfig(dataset="synthetic:n=40,d=6,seed=2", n_clients=4, methods=("gd", "ef21:k=2"),
                         multipliers=(1.0,), max_rounds=5, out_dir=sys.argv[1]))
print("scipy.sparse" in sys.modules)
Problem.partitioned([[0.0] * 8 + [1.0], [0.0] * 9], [1.0, -1.0], [1, 1], 0.1)  # rows 1/18 nonzero: CSR
print("scipy.sparse" in sys.modules)
"""


def test_a_dense_sweep_does_not_import_scipy_sparse(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _SPARSE_IMPORT_PROBE, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]  # imported only once a problem is built sparse
    assert len(list(tmp_path.glob("*.csv"))) == 3


def test_a_mostly_zero_libsvm_file_is_never_densified(tmp_path):
    """build_dataset on a file whose dense form is 41 MB traces a peak below a quarter of that."""
    n_rows, dim = 2500, 2048
    g = np.random.default_rng(5)
    lines = []
    for r in range(n_rows):
        indices = np.sort(g.choice(dim, size=int(g.integers(1, 16)), replace=False)) + 1
        lines.append(("+1 " if r % 2 else "-1 ") + " ".join(f"{j}:{g.integers(1, 999) / 8}" for j in indices.tolist()))
    path = tmp_path / "wide.svm"
    path.write_text("\n".join(lines) + "\n")
    dense_bytes = n_rows * dim * 8
    assert dense_bytes >= 40e6
    tracemalloc.start()
    try:
        problem, _ = build_dataset(RunConfig(dataset=str(path), n_clients=20, scale_features=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4, f"traced peak {peak / 1e6:.1f} MB"
    assert problem.rows.sparse and problem.dim == dim
