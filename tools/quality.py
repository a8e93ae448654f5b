#!/usr/bin/env python3
"""Search quality as exact counts: writes ``BENCH_quality.json``.

Run from the repository root::

    python3 tools/quality.py                      # writes BENCH_quality.json
    python3 tools/quality.py -o /tmp/quality.json
    python3 tools/quality.py compare HEAD~1 .

Time-to-solve is heavy-tailed, so quality is reported as run-length
distributions in iterations (Hoos & Stützle, *Stochastic Local Search*,
2004) and as best violations at a fixed iteration budget.  Both repeat
exactly on any machine, so a change of search behaviour shows as a diff
of the committed file, and a change that keeps it leaves the file as it
is.  The file holds:

- ``run_length``: for search seeds 101..200 at budget 5000 on two 20x20
  instances, ``generate(seed=7, ...)`` and ``generate(seed=13, ...)``, the
  iterations to zero at the nearest-rank quartiles, median and 90th
  percentile, their sum and the unsolved count.  An unsolved run counts
  at the budget, the longest any run can read.  ``lengths`` lists each
  seed's run length, with ``null`` for an unsolved run;
- ``best_at_budget``: the best violation per seed of the benchmark's
  ``iterate-80x80`` at 2000 iterations (seeds 1..5) and ``restart-3d`` at
  1500 iterations (seeds 1..4), with their medians;
- ``best_at_budget_20_seeds``: the same over seeds 1..20, enough for the
  sign test to tell a change from luck (with 5 seeds no split reaches
  p < 0.05);
- the restarts of every run beside each.

``compare PARENT CHANGE`` takes two trees, each a directory or a git
revision of this checkout, copies them as ``tools/bench.py compare``
does, puts this file into both copies, so that both are measured by the
same code, and writes each copy's file in a fresh interpreter, the two
at once (the counts do not depend on timing).  Per instance and
workload it then prints the medians, the seeds on which the change is
better, worse or equal (lower is better for both measures; an unsolved
run is worse than any solved one), the two-sided exact sign-test
p-value over the seeds that differ (Hoos & Stützle, ch. 4), and for run
lengths the unsolved counts side by side.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

from run import WORKLOADS, make_instance  # noqa: E402
from sectorsearch import generate, search  # noqa: E402
from sectorsearch.engine import TOLERANCE  # noqa: E402

RUN_LENGTH_INSTANCES = (7, 13)
RUN_LENGTH_SEEDS = range(101, 201)
RUN_LENGTH_BUDGET = 5000
BEST_AT_BUDGET = {"iterate-80x80": 2000, "restart-3d": 1500}
WIDE_SEEDS = range(1, 21)


def searched(instance, seed, budget):
    """One seeded search on a fresh model."""
    return search(instance.build(), replace(instance.search, seed=seed, max_iterations=budget))


def nearest_rank(ordered, p):
    return ordered[max(math.ceil(p * len(ordered)), 1) - 1]


def run_length(instance_seed):
    instance = generate(seed=instance_seed, width=20, height=20, colours=6, flights=3)
    lengths, restarts, unsolved = [], [], 0
    for seed in RUN_LENGTH_SEEDS:
        result = searched(instance, seed, RUN_LENGTH_BUDGET)
        solved = result.violation <= TOLERANCE
        unsolved += not solved
        lengths.append(result.iterations if solved else None)
        restarts.append(result.restarts)
    ordered = sorted(RUN_LENGTH_BUDGET if n is None else n for n in lengths)
    return {
        "instance": f"generate(seed={instance_seed}, width=20, height=20, colours=6, flights=3)",
        "seeds": [RUN_LENGTH_SEEDS.start, RUN_LENGTH_SEEDS.stop - 1],
        "budget": RUN_LENGTH_BUDGET,
        "unsolved": unsolved,
        **{name: nearest_rank(ordered, p)
           for name, p in (("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("q90", 0.9))},
        "sum": sum(ordered),
        "restarts_per_run": restarts,
        "lengths": lengths,
    }


def best_at_budget(name, budget):
    """Two rows of best violations at ``budget``: over the workload's
    benchmark seeds and over :data:`WIDE_SEEDS`, each seed searched once."""
    w = WORKLOADS[name]
    instance = make_instance(w)
    runs = {}  # seed -> (best violation, restarts)
    for seed in (*w.seeds, *WIDE_SEEDS):
        if seed not in runs:
            result = searched(instance, seed, budget)
            runs[seed] = result.violation, result.restarts

    def row(seeds):
        best = [runs[seed][0] for seed in seeds]
        return {
            "budget": budget,
            "best": best,
            "median": statistics.median(best),
            "restarts_per_run": [runs[seed][1] for seed in seeds],
        }

    wide = [WIDE_SEEDS.start, WIDE_SEEDS.stop - 1]
    return {"seeds": list(w.seeds), **row(w.seeds)}, {"seeds": wide, **row(WIDE_SEEDS)}


def quality():
    rows = {name: best_at_budget(name, b) for name, b in BEST_AT_BUDGET.items()}
    return {
        "run_length": {f"20x20-seed{s}": run_length(s) for s in RUN_LENGTH_INSTANCES},
        "best_at_budget": {name: few for name, (few, _) in rows.items()},
        "best_at_budget_20_seeds": {name: wide for name, (_, wide) in rows.items()},
    }


# ---------------------------------------------------------------------------
# compare

def sign_test(wins: int, losses: int) -> float:
    """The two-sided exact sign-test p-value of ``wins`` against
    ``losses``, ties left out: the chance, under a fair coin, of a split
    at least this uneven."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def paired(parent, change):
    """Per seed, whether the change is lower (a win), higher (a loss) or
    equal; ``None``, an unsolved run, is higher than any number."""
    def key(x):
        return math.inf if x is None else x
    wins = sum(key(b) < key(a) for a, b in zip(parent, change))
    losses = sum(key(b) > key(a) for a, b in zip(parent, change))
    return wins, losses, len(parent) - wins - losses


def _row(label: str, parent, change) -> str:
    wins, losses, ties = paired(parent, change)
    return (f"  {label}: {wins} better, {losses} worse, {ties} equal; "
            f"sign test p = {sign_test(wins, losses):.4g}")


def summary(parent: dict, change: dict) -> list:
    """The lines :func:`compare` prints for two quality files."""
    lines = []
    for name, p in parent["run_length"].items():
        c = change["run_length"][name]
        lines.append(f"{name}: run lengths, seeds {p['seeds'][0]}..{p['seeds'][1]}, "
                     f"budget {p['budget']}")
        lines.append(f"  median {p['median']} -> {c['median']}, sum {p['sum']} -> {c['sum']}, "
                     f"unsolved {p['unsolved']} -> {c['unsolved']}")
        lines.append(_row("per seed", p["lengths"], c["lengths"]))
    for name, p in parent["best_at_budget"].items():
        c = change["best_at_budget"][name]
        lines.append(f"{name}: best at {p['budget']} iterations, seeds "
                     f"{', '.join(map(str, p['seeds']))}")
        lines.append(f"  median {p['median']:.6g} -> {c['median']:.6g}")
        lines.append(_row("per seed", p["best"], c["best"]))
        p, c = parent["best_at_budget_20_seeds"][name], change["best_at_budget_20_seeds"][name]
        seeds = f"seeds {p['seeds'][0]}..{p['seeds'][1]}"
        lines.append(f"  {seeds}: median {p['median']:.6g} -> {c['median']:.6g}")
        lines.append(_row(f"{seeds}, per seed", p["best"], c["best"]))
    return lines


def compare(parent: str, change: str) -> list:
    """Measure both trees with this file's code; the summary lines."""
    from bench import _copy_tree

    with tempfile.TemporaryDirectory(prefix="quality-compare-") as work:
        runs = []
        for side, source in (("parent", parent), ("change", change)):
            root = Path(work) / side
            _copy_tree(source, root)
            (root / "tools").mkdir(exist_ok=True)
            shutil.copyfile(__file__, root / "tools" / "quality.py")
            out = root / "quality.json"
            command = [sys.executable, str(root / "tools" / "quality.py"), "-o", str(out)]
            runs.append((side, out, subprocess.Popen(
                command, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)))
        files = []
        for side, out, process in runs:
            _, err = process.communicate()
            if process.returncode != 0:
                raise SystemExit(f"the {side} tree failed:\n{err}")
            files.append(json.loads(out.read_text()))
    return summary(*files)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="quality.py compare",
            description="Search quality of two trees, seed by seed.")
        parser.add_argument("parent", help="directory, or git revision of this checkout")
        parser.add_argument("change", help="directory, or git revision of this checkout")
        args = parser.parse_args(argv[1:])
        print("\n".join(compare(args.parent, args.change)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("-o", "--output", default=str(ROOT / "BENCH_quality.json"))
    args = parser.parse_args(argv)
    Path(args.output).write_text(json.dumps(quality(), indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
