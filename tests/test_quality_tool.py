"""``tools/quality.py compare`` measures two trees with one code and
compares their search quality seed by seed, with a sign test."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("quality_tool", ROOT / "tools" / "quality.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sign_test_is_exact_and_two_sided(monkeypatch):
    tool = _tool(monkeypatch)
    assert tool.sign_test(0, 0) == 1.0
    assert tool.sign_test(3, 3) == 1.0
    assert tool.sign_test(5, 0) == tool.sign_test(0, 5) == 2 / 32
    # 2 * (C(10, 0) + C(10, 1)) / 2**10
    assert tool.sign_test(9, 1) == 22 / 1024


def test_an_unsolved_run_is_worse_than_any_solved_one(monkeypatch):
    tool = _tool(monkeypatch)
    parent = [10, None, 30, None, 5]
    change = [12, 4999, None, None, 5]
    assert tool.paired(parent, change) == (1, 2, 2)


def test_a_tree_compared_with_itself_ties_on_every_seed():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "quality.py"), "compare", str(ROOT), str(ROOT)],
        check=True, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    names = [line.split(":")[0] for line in lines if not line.startswith(" ")]
    assert names == ["20x20-seed7", "20x20-seed13", "iterate-80x80", "restart-3d"]
    rows = [line for line in lines if line.startswith("  per seed:")]
    assert rows == [
        "  per seed: 0 better, 0 worse, 100 equal; sign test p = 1",
        "  per seed: 0 better, 0 worse, 100 equal; sign test p = 1",
        "  per seed: 0 better, 0 worse, 5 equal; sign test p = 1",
        "  per seed: 0 better, 0 worse, 4 equal; sign test p = 1",
    ]
    # the best-at-budget workloads also over seeds 1..20
    wide = [line for line in lines if line.startswith("  seeds 1..20, per seed:")]
    assert wide == ["  seeds 1..20, per seed: 0 better, 0 worse, 20 equal; sign test p = 1"] * 2
    for line in lines:
        if line.startswith("  median"):
            medians = line.split(",")[0].split()[1:]
            assert medians[0] == medians[2], line
        if line.startswith("  seeds 1..20: median"):
            medians = line.split()[3:]
            assert medians[0] == medians[2], line
