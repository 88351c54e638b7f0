"""The README's library example runs as written, and its config table matches RunConfig."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

import adacgd
from adacgd.cli import _add_config_options
from adacgd.experiments import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "expected exactly one Python example in README.md"
    exec(compile(blocks[0], str(README), "exec"), {})
    last_round, grad_sq, uplink = capsys.readouterr().out.split()
    assert int(last_round) > 0 and float(grad_sq) >= 0.0 and int(uplink) > 0


def test_readme_libsvm_comment_runs_as_written():
    call = re.search(r"# (build_libsvm_problem\(\*parse_libsvm\(text\), )\.\.\.\)", README.read_text()).group(1)
    text = "+1 1:1\n-1 2:1\n+1 1:0.5 2:2\n"
    problem = eval(call + "n_clients=2, lam=0.1, seed=0)", dict(vars(adacgd)), {"text": text})
    assert problem.dim == 2 and problem.n_clients == 2


def _config_table() -> list[list[str]]:
    """Rows of the README's key / flag / type table, cells without backticks."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | flag | type |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def test_readme_config_table_lists_every_config_field_with_its_type():
    rows = _config_table()
    assert [key for key, _, _ in rows] == [f.name for f in fields(RunConfig)]
    assert {key: kind for key, _, kind in rows} == {f.name: f.type for f in fields(RunConfig)}


def test_readme_config_table_names_real_flags():
    parser = argparse.ArgumentParser()
    _add_config_options(parser)
    flags = {flag.split()[0] for _, flag, _ in _config_table() if flag != "none"}
    assert flags <= set(parser._option_string_actions)
