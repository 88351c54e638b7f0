"""Fast tests of the benchmark itself.

    python -m pytest perfbench/tests -q

Each workload runs end to end at a tiny size, and every output check is shown
to fire on a trace corrupted in the way it guards against.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "rounds_per_s", "peak_rss_mb"}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct(workload):
    result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] % (2 * len(workloads.build(workload, 3, HERE, tiny=True).methods)) == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = run_bench("highdim_bidir", 1)
    assert result["correct"] is True
    metrics = result["metrics"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    for name in ("compressors.topk_calls", "core.generator_calls", "compressors.master_calls", "engine.rounds"):
        assert metrics[name]["value"] > 0, name
    assert metrics["compressors.candidates_per_call"]["value"] >= 1.0
    assert metrics["tracing.overhead_ratio"]["value"] > 0


def test_unknown_workload_fails():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "nope", "--seed", "1",
                           "--seconds", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_missing_program_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "protocol_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def checked_sweep(tmp_path_factory):
    """One tiny protocol sweep that passed every check, and what produced it."""
    out = tmp_path_factory.mktemp("sweep")
    wl = workloads.build("protocol_sweep", 3, out, tiny=True)
    sweeper = worker.Sweeper(wl, out / "traces")
    timer = worker.BuildTimer()
    with timer:
        result = worker.experiments.run_experiment(sweeper.config)
    sweeper._check(result, timer.problem)
    assert sweeper.failures == []
    oracle = checks.Oracle(timer.problem.shards, wl.lam)
    return wl, sweeper, result, oracle


def _trace(wl, name):
    method, mult = next((m, x) for m, x, n in wl.trace_files() if n == name)
    return method, mult


def _edit_row(text: str, round_index: int, column: int, edit) -> str:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("round,")) + 1
    fields = lines[start + round_index].split(",")
    fields[column] = edit(fields[column])
    lines[start + round_index] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _fails(checked_sweep, name, text):
    wl, sweeper, result, oracle = checked_sweep
    method, mult = _trace(wl, name)
    status = checks.parse_trace(text)[0]["status"]
    return checks.check_trace(text, method, mult, wl, oracle, status)[0]


@pytest.mark.parametrize("name", ["adacgd_z1_x1.csv", "lag_z1_x4.csv", "gd_x1.csv"])
def test_untouched_traces_pass(checked_sweep, name):
    text = (checked_sweep[1].out_dir / name).read_text()
    assert _fails(checked_sweep, name, text) == []


@pytest.mark.parametrize("column", [7, 8])
def test_altered_bit_count_fires(checked_sweep, column):
    text = (checked_sweep[1].out_dir / "adacgd_z1_x1.csv").read_text()
    bad = _edit_row(text, 3, column, lambda v: str(int(v) + 1))
    assert any("grew by" in f for f in _fails(checked_sweep, "adacgd_z1_x1.csv", bad))


def test_altered_branch_histogram_fires(checked_sweep):
    text = (checked_sweep[1].out_dir / "clag_k1_z1_x1.csv").read_text()
    row = checks.parse_trace(text)[1][2]
    swapped = ";".join(str(c) for c in reversed(row.hist))
    assert row.hist[0] != row.hist[1], "needs a round with unequal branch counts"
    bad = _edit_row(text, 2, 9, lambda v: swapped)
    assert any("uplink grew by" in f for f in _fails(checked_sweep, "clag_k1_z1_x1.csv", bad))


def test_perturbed_first_rounds_fire(checked_sweep):
    text = (checked_sweep[1].out_dir / "ef21_k1_x4.csv").read_text()
    for index, needle in ((0, "round 0 f_value"), (1, "round 1 f_value")):
        bad = _edit_row(text, index, 1, lambda v: repr(float(v) * (1 + 1e-8)))
        assert any(needle in f for f in _fails(checked_sweep, "ef21_k1_x4.csv", bad))
    bad = _edit_row(text, 1, 2, lambda v: repr(float(v) * (1 + 1e-8)))
    assert any("round 1 grad_norm_sq" in f for f in _fails(checked_sweep, "ef21_k1_x4.csv", bad))


def test_perturbed_gd_round_fires(checked_sweep):
    text = (checked_sweep[1].out_dir / "gd_x1.csv").read_text()
    bad = _edit_row(text, 7, 1, lambda v: repr(float(v) * (1 + 1e-6)))
    assert any("left NumPy descent" in f for f in _fails(checked_sweep, "gd_x1.csv", bad))


def test_rising_potential_fires(checked_sweep):
    text = (checked_sweep[1].out_dir / "lag_z1_x1.csv").read_text()
    bad = _edit_row(text, 5, 3, lambda v: repr(float(v) + 1.0))
    assert any("phi rose" in f for f in _fails(checked_sweep, "lag_z1_x1.csv", bad))


def test_wrong_status_fires(checked_sweep):
    text = (checked_sweep[1].out_dir / "adacgd_z1_x4.csv").read_text()
    status = checks.parse_trace(text)[0]["status"]
    other = "reached" if status != "reached" else "unreached"
    bad = text.replace(f"# status = {status}", f"# status = {other}")
    assert any("disagrees" in f for f in _fails(checked_sweep, "adacgd_z1_x4.csv", bad))


def test_changed_byte_fires(checked_sweep):
    wl, sweeper, result, _ = checked_sweep
    path = sweeper.out_dir / "clag_k1_z1_x4.csv"
    original = path.read_bytes()
    try:
        row = original.rindex(b"\n", 0, len(original) - 1) + 1
        index = original.index(b",", row) + 3  # a digit of the last row's f_value
        digit = bytes([ord("0") + (original[index] - ord("0") + 1) % 10])
        path.write_bytes(original[:index] + digit + original[index + 1:])
        before = len(sweeper.failures)
        sweeper._check(result, None)
        assert any("differ from the first sweep" in f for f in sweeper.failures[before:])
    finally:
        path.write_bytes(original)


def test_cost_rule_matches_paper():
    # skip 1 bit; sparse k(64 + ceil(log2 d)) capped at 64d, plus the header; full 64d
    assert checks._payload_bits(("skip",), 50, 2) == 1
    assert checks._payload_bits(("sparse", 5), 50, 2) == 5 * (64 + 6) + 2
    assert checks._payload_bits(("sparse", 49), 50, 2) == 64 * 50 + 2
    assert checks._payload_bits(("full",), 50, 2) == 64 * 50
    assert workloads.default_levels(2000) == (1, 20, 200, 1000)
    assert math.ceil(math.log2(len(workloads.default_levels(2000)) + 1)) == 3
