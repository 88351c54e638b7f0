"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "expected exactly one Python example in README.md"
    exec(compile(blocks[0], str(README), "exec"), {})
    last_round, grad_sq, uplink = capsys.readouterr().out.split()
    assert int(last_round) > 0 and float(grad_sq) >= 0.0 and int(uplink) > 0
