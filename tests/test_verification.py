import pytest

from adacgd.core import ThreePCConstants
from adacgd.verification import (
    PropertyResult,
    monotone_check,
    recursion_check,
    run_suite,
)

import numpy as np


def test_property_result_line_format():
    r = PropertyResult("example", True, 1.25e-3, "42 samples")
    assert r.line().startswith("[PASS] example")
    r = PropertyResult("example", False, -1.0)
    assert r.line().startswith("[FAIL]")


def test_monotone_check_tolerates_tiny_noise():
    values = np.array([1.0, 0.5, 0.5 + 1e-12, 0.25])
    assert monotone_check(values, "m").passed
    values = np.array([1.0, 0.5, 0.6])
    assert not monotone_check(values, "m").passed


def test_recursion_check_flags_violation():
    lhs = np.array([1.0, 2.0])
    rhs = np.array([1.5, 1.0])
    result = recursion_check(lhs, rhs, "r")
    assert not result.passed
    assert result.margin == pytest.approx(-1.0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


@pytest.mark.parametrize("suite", ["compressors", "gradients", "lyapunov", "bounds"])
def test_suites_pass_at_small_scale(suite):
    results = run_suite(suite, seed=0, trials=150)
    assert results, "suite produced no checks"
    failing = [r.line() for r in results if not r.passed]
    assert not failing, failing


def test_gradient_suite_output_independent_of_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import adacgd

    src_dir = str(Path(adacgd.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "adacgd.cli", "verify", "gradients", "--seed", "0"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    assert "smoothness[logistic-nonconvex]" in outputs[0]
    assert outputs[0] == outputs[1]
