"""``tools/bench.py`` writes one ``BENCH_<workload>.json`` per workload
with the benchmark's report and what produced it."""

import json
import subprocess
import sys
from pathlib import Path

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
