"""``tools/bench.py`` writes one ``BENCH_<workload>.json`` per workload
with the benchmark's report and what produced it, and ``compare`` runs
two trees in alternating pairs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tool_writes_the_report_and_its_provenance(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "--workload", "solve-20x20",
         "--seconds", "0", "--seeds", "3", "-o", str(tmp_path)],
        check=True, capture_output=True, text=True,
    )
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_solve-20x20.json"]
    written = json.loads((tmp_path / "BENCH_solve-20x20.json").read_text())
    assert set(written) == {
        "workload", "seeds", "seconds", "trace", "python", "revision", "dirty", "reports",
    }
    assert written["workload"] == "solve-20x20"
    assert written["seeds"] == [3]
    assert written["seconds"] == 0.0
    assert written["trace"] == 0
    assert written["python"] == ".".join(map(str, sys.version_info[:3]))
    [report] = written["reports"]
    assert report["correct"] is True and report["failed"] == 0
    assert set(report["metrics"]) == {"setup_s", "iters_per_s", "solve_s", "peak_rss_mb"}


def test_compare_runs_alternating_pairs_of_two_trees(tmp_path):
    """A tree compared with itself: every pair runs on both sides, and the
    exact counts and ``failed`` agree."""
    out = tmp_path / "runs.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "compare", str(ROOT), str(ROOT),
         "--workload", "iterate-80x80", "--pairs", "2", "--seconds", "0", "-o", str(out)],
        check=True, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "iterate-80x80: 2 pairs at --seconds 0, seeds 1..2"
    for metric in ("setup_s", "iters_per_s", "solve_s", "peak_rss_mb"):
        [row] = [line for line in lines if line.split()[:1] == [metric]]
        assert "/2 " in row
    # each side's set-up counts come right under peak_rss_mb, and every
    # run sets up at least three times
    [rss] = [i for i, line in enumerate(lines) if line.split()[:1] == ["peak_rss_mb"]]
    setups = lines[rss + 1].split()
    assert setups[0] == "set-ups"
    assert all(float(setups[i]) >= 3 for i in (1, 4))
    assert "  exact counts agree: yes" in "\n".join(lines)
    assert "  failed agree: yes (values [0])" in lines
    runs = json.loads(out.read_text())["iterate-80x80"]
    assert [len(runs[side]) for side in ("parent", "change")] == [2, 2]
    exact = [run["exact"] for side in ("parent", "change") for run in runs[side]]
    assert set(exact[0]) == {"solved_frac", "best_violation", "iterations"}
    assert all(counts == exact[0] for counts in exact)


def _tool(monkeypatch):
    """``tools/bench.py`` as a module, imported without keeping its
    ``sys.path`` entry."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_counts_wins_in_each_metric_direction(monkeypatch):
    tool = _tool(monkeypatch)
    parent, change = [10, 12, 11, 13], [9, 12, 12, 10]
    lower = tool.summarise(parent, change, "lower")
    assert lower["wins"] == 2  # the tie in the second pair counts for neither
    assert lower["parent"] == (11.5, 10.25, 12.75)
    assert lower["gain"] == 11.5 - 11.0
    assert lower["spread"] == 12.75 - 10.25
    higher = tool.summarise(parent, change, "higher")
    assert higher["wins"] == 1
    assert higher["gain"] == -lower["gain"]


def test_compare_reads_the_set_up_count_of_a_run(monkeypatch):
    tool = _tool(monkeypatch)
    out = (
        "workload iterate-80x80 seed 2 trace 0 passes 5 set-ups 37 speed samples 12\n"
        "  wall-clock: setup_s 0.027 solve_s 0.11\n"
        "  iterations 1000 iterations\n"
    )
    assert tool.setup_count(out) == 37
    with pytest.raises(ValueError):
        tool.setup_count("  iterations 1000 iterations\n")
