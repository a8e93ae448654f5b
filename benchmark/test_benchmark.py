"""Tests of the benchmark itself: ``python3 -m pytest benchmark``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
from sectorsearch import generate, search
from tracer import Tracer
from verify import verify

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = run.Workload(
    "tiny",
    dict(seed=1, width=6, height=6, colours=3, flights=1, with_compact=True),
    seeds=(1, 2, 3),
    budget=60,
    replay_iters=20,
)

COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("count", "count/iter", "violation")
          or m["name"] in ("engine.commit_ratio", "engine.solved_frac")]


def test_verifier_flags_paper_fast_false_solution():
    instance = generate(seed=1, width=12, height=12, colours=5, flights=3,
                        balanced_share=0.03)
    model = instance.build(mode_override="paper-fast")
    result = search(model, replace(instance.search, seed=2, max_iterations=4000))
    assert result.violation == 0  # what the search claims
    total, problems = verify(instance, result)
    assert total > 0
    assert any("search reported" in p for p in problems)


def test_verifier_accepts_exact_results():
    instance = run.make_instance(TINY)
    model = instance.build()
    for seed in TINY.seeds:
        result = search(model, replace(instance.search, seed=seed, max_iterations=60))
        total, problems = verify(instance, result)
        assert problems == []
        assert abs(total - result.violation) < 1e-9


def test_reports_exactly_the_declared_metrics():
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        report = run.run_workload(TINY, seed=1, seconds=0, traced=traced)
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] and report["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in report["metrics"].items()} == declared


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _traced_counts(seed):
    code = (
        "import json, run, test_benchmark as t\n"
        f"r = run.run_workload(t.TINY, seed={seed}, seconds=0, traced=True)\n"
        "print(json.dumps(r))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def test_exact_counts_repeat_in_fresh_processes():
    # --seed only reorders the batch, so even different seeds agree
    first = _traced_counts(1)
    assert first["engine.probes_per_iter"] > 0
    assert _traced_counts(2) == first


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    box = Box()
    tracer.wrap(box, "inner", "inner")
    tracer.wrap(box, "outer", "outer")
    assert box.outer() == 2
    tracer.unwrap_all()
    assert "outer" not in vars(box)
    totals = tracer.totals()
    count, incl, own = totals["outer"]
    assert count == 1
    assert totals["inner"][0] == 2
    assert abs(own - (incl - totals["inner"][1])) < 1e-12


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "solve-20x20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
