#!/usr/bin/env python3
"""Search quality as exact counts: writes ``BENCH_quality.json``.

Run from the repository root::

    python3 tools/quality.py                      # writes BENCH_quality.json
    python3 tools/quality.py -o /tmp/quality.json

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
  at the budget, the longest any run can read;
- ``best_at_budget``: the best violation per seed of the benchmark's
  ``iterate-80x80`` at 2000 iterations (seeds 1..5) and ``restart-3d`` at
  1500 iterations (seeds 1..4), with their medians;
- the restarts of every run beside each.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
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
        lengths.append(result.iterations if solved else RUN_LENGTH_BUDGET)
        restarts.append(result.restarts)
    ordered = sorted(lengths)
    return {
        "instance": f"generate(seed={instance_seed}, width=20, height=20, colours=6, flights=3)",
        "seeds": [RUN_LENGTH_SEEDS.start, RUN_LENGTH_SEEDS.stop - 1],
        "budget": RUN_LENGTH_BUDGET,
        "unsolved": unsolved,
        **{name: nearest_rank(ordered, p)
           for name, p in (("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("q90", 0.9))},
        "sum": sum(lengths),
        "restarts_per_run": restarts,
    }


def best_at_budget(name, budget):
    w = WORKLOADS[name]
    instance = make_instance(w)
    best, restarts = [], []
    for seed in w.seeds:
        result = searched(instance, seed, budget)
        best.append(result.violation)
        restarts.append(result.restarts)
    return {
        "seeds": list(w.seeds),
        "budget": budget,
        "best": best,
        "median": statistics.median(best),
        "restarts_per_run": restarts,
    }


def quality():
    return {
        "run_length": {f"20x20-seed{s}": run_length(s) for s in RUN_LENGTH_INSTANCES},
        "best_at_budget": {name: best_at_budget(name, b) for name, b in BEST_AT_BUDGET.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("-o", "--output", default=str(ROOT / "BENCH_quality.json"))
    args = parser.parse_args(argv)
    Path(args.output).write_text(json.dumps(quality(), indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
