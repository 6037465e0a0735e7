"""The README's library example runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    iterations, residual = capsys.readouterr().out.split()
    assert int(iterations) > 0 and float(residual) >= 0.0
