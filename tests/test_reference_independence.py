"""The test tree's references share no code with the package they check."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _adacgd_imports(source: str) -> list[str]:
    """The modules that import statements anywhere in ``source`` name that are ``adacgd`` or under it."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return [m for m in names if m == "adacgd" or m.startswith("adacgd.")]


@pytest.mark.parametrize("reference", ["reference_sim.py", "libsvm_ref.py"])
def test_a_reference_imports_nothing_from_adacgd(reference):
    assert _adacgd_imports((TESTS / reference).read_text()) == []


def test_the_guard_sees_an_adacgd_import_in_any_form():
    for source in ("import numpy, adacgd", "import adacgd.core as c", "from adacgd import compressors",
                   "from adacgd.compressors import AdaCGD", "def f():\n    from adacgd import core"):
        assert _adacgd_imports(source), source
    assert _adacgd_imports("import numpy as np\nfrom adacgdx import y") == []
