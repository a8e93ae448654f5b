"""The README's library example runs against the current public API, so
removing or renaming an exported name cannot leave it broken."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    violation, colours = capsys.readouterr().out.split(" ", 1)
    assert float(violation) == 0
    assert colours.startswith("{0: ")
