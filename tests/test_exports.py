"""Every exported name resolves, so a trimmed module cannot leave a stale
entry in ``__all__``; and every name ``sectorsearch.constraints`` exports
is used by the package or the benchmark, so no export lives for the tests
alone."""

import ast
from pathlib import Path

import pytest

import sectorsearch
import sectorsearch.constraints


@pytest.mark.parametrize("module", [sectorsearch, sectorsearch.constraints],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _names_used(root):
    """Every name a module under ``root`` reads, as a bare name or as an
    attribute, ``__init__`` modules left out."""
    used = set()
    for path in root.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_constraints_export_is_used_outside_the_tests():
    repo = Path(__file__).resolve().parent.parent
    used = _names_used(repo / "src") | _names_used(repo / "benchmark")
    unused = [name for name in sectorsearch.constraints.__all__ if name not in used]
    assert unused == []
