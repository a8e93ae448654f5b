#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sectorsearch.

Run from the repository root::

    python3 benchmark/run.py                      # every workload, untraced
    python3 benchmark/run.py --trace 1            # every workload, traced
    python3 benchmark/run.py --workload solve-20x20 --seed 3 --seconds 20 --trace 0

One workload runs in one process, closed loop: seeded ``search`` calls one
after another on one thread.  Without ``--workload`` each workload runs in
a fresh interpreter of its own, one at a time, so that one workload's peak
memory cannot mask another's.

A run sets the workload up at least three times and for at least a second
(``generate``, ``dumps``, ``loads``, ``Instance.build``) and reports the
median.  It then runs the workload's fixed batch of seeded searches in
passes until ``--seconds`` would be exceeded; every pass after the first
must replay the first exactly.  The batch's seeds are fixed rather than
drawn from ``--seed`` because time-to-solve is heavy-tailed (1 to 2554
iterations over seeds 1..10 of solve-20x20), so a batch drawn afresh per
run would spread far beyond any useful bound.  ``--seed`` orders the
batch and picks one extra search, replayed on two models, that must give
identical results.  Every result of the first pass is rebuilt from
scratch and compared with what the search reported.  Reported times are
corrected for CPU contention from other processes (see ``speed.py``).

With ``--trace 1`` one untraced pass is followed by one traced pass and
the per-layer metrics are printed; the spans are written to
``benchmark/out/``.  The last line of output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import SpeedSampler
from tracer import Tracer, percentile
from verify import TOLERANCE, same_run, verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(SRC))
try:
    from sectorsearch import dumps, generate, loads, search
except ImportError:
    search = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: keyword arguments of ``generate``
    params: Dict[str, object]
    #: search seeds of one pass
    seeds: Tuple[int, ...]
    #: ``max_iterations`` of every search in the batch
    budget: int
    #: budget of the extra search that ``--seed`` picks and replays
    replay_iters: int
    #: constraint kind -> parameters overriding the generated ones
    spec_params: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: ``SearchConfig`` fields overriding the generated ones
    search_params: Dict[str, object] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-20x20",
            dict(seed=7, width=20, height=20, colours=6, flights=3),
            seeds=tuple(range(1, 11)),
            budget=5000,
            replay_iters=400,
        ),
        Workload(
            "iterate-80x80",
            dict(seed=3, width=80, height=80, colours=8, flights=8,
                 balanced_share=0.02, with_nonborder=True, with_compact=True),
            seeds=(1, 2, 3, 4, 5),
            budget=200,
            replay_iters=30,
        ),
        Workload(
            "restart-3d",
            dict(seed=5, width=8, height=8, depth=4, dim=3, colours=16, flights=4,
                 with_compact=True),
            seeds=(1, 2, 3, 4),
            budget=1500,
            replay_iters=600,
            spec_params={"compact": {"mode": "A", "threshold": 0}},
            search_params={"moves_per_iter": 2, "restart_after": 25},
        ),
    )
}

KINDS = ("connected", "compact", "balanced", "stretchsum", "nonborder")

#: the first constraint's ``violation()`` outside ``total_violation`` is
#: the engine appending a trace row, which it does once per iteration
ROW = "engine.trace_row"

SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 1.0
REPLAY_SEED_BASE = 1000


# ---------------------------------------------------------------------------
# set-up

def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def make_instance(w: Workload):
    instance = generate(**w.params)
    for spec in instance.constraints:
        spec.params.update(w.spec_params.get(spec.kind, {}))
    instance.search = replace(instance.search, **w.search_params)
    return instance


def set_up(w: Workload, tracer: Optional[Tracer] = None):
    """``generate`` -> ``dumps`` -> ``loads`` -> ``Instance.build``; returns
    the instance, the model and the (start, end) of the whole set-up."""
    start = time.perf_counter()
    with _span(tracer, "instance.generate"):
        instance = make_instance(w)
    with _span(tracer, "instance.dumps"):
        text = dumps(instance)
    with _span(tracer, "instance.loads"):
        instance = loads(text)
    if tracer:
        tracer.wrap(instance, "validate", "instance.validate")
        tracer.wrap(instance.grid, "build", "geometry.grid")
    with _span(tracer, "instance.build"):
        model = instance.build()
    end = time.perf_counter()
    if tracer:
        tracer.unwrap_all()
    return instance, model, (start, end)


def set_up_repeatedly(w: Workload, tracer: Optional[Tracer] = None):
    """Set-up intervals, and the first two (instance, model) pairs."""
    intervals: List[Tuple[float, float]] = []
    built = []
    while len(intervals) < SETUP_MIN_RUNS or _wall(intervals) < SETUP_MIN_SECONDS:
        gc.collect()  # models hold reference cycles; free the last one first
        instance, model, interval = set_up(w, tracer)
        intervals.append(interval)
        if len(built) < 2:
            built.append((instance, model))
    return intervals, built


def _wall(intervals) -> float:
    return sum(end - start for start, end in intervals)


# ---------------------------------------------------------------------------
# searching

def run_pass(instance, model, w: Workload, order, keep, tracer: Optional[Tracer] = None):
    """One search per seed, each handed to ``keep(seed, result)`` as soon as
    it ends, so a pass holds one result at a time; returns each search's
    (start, end)."""
    gc.collect()
    intervals = []
    for seed in order:
        cfg = replace(instance.search, seed=seed, max_iterations=w.budget)
        start = time.perf_counter()
        with _span(tracer, "engine.search"):
            result = search(model, cfg)
        intervals.append((start, time.perf_counter()))
        keep(seed, result)
        del result
    return intervals


def instrument(tracer: Tracer, instance, model) -> None:
    kinds = {spec.id: spec.kind for spec in instance.constraints}
    for method in ("probe_parts", "commit", "total_violation"):
        tracer.wrap(model, method, f"engine.{method}")
    tracer.wrap(model.state, "set_all", "state.set_all")
    for constraint, _ in model.entries:
        kind = kinds[constraint.id]
        for method, op in (("probe_assign", "probe"), ("commit_assign", "commit"),
                           ("rebuild", "rebuild")):
            tracer.wrap(constraint, method, f"constraints.{kind}.{op}")
    tracer.wrap(model.entries[0][0], "violation", ROW)


def layer_metrics(tracer: Tracer, results, n_searches: int,
                  setup_scale: float, search_scale: float) -> Dict[str, float]:
    """Per-layer metrics of a traced pass; span times are multiplied by the
    speed correction of the phase (set-up or search) they fell in."""
    totals = tracer.totals()

    def count(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name, column=1):
        scale = setup_scale if name.startswith(("instance.", "geometry.")) else search_scale
        return totals.get(name, (0, 0.0, 0.0))[column] * scale

    def mean_us(name):
        return seconds(name) / count(name) * 1e6 if count(name) else 0.0

    iterations = sum(r.iterations for r in results.values())
    gaps = tracer.gaps(ROW, "engine.search")
    if len(gaps) < 2:
        raise RuntimeError(
            f"found {len(gaps)} trace-row intervals; per-iteration timing needs "
            "one trace row per iteration in SearchResult.trace"
        )
    search_s = seconds("engine.search")
    # the search's self time: outside probe_parts, commit, total_violation,
    # set_all and the trace-row marker, that is pool scan, candidate
    # colours, tabu filter and trace append
    select_s = seconds("engine.search", column=2)
    m: Dict[str, float] = {}
    for kind in KINDS:
        for op in ("probe", "commit"):
            m[f"constraints.{kind}.{op}_us"] = mean_us(f"constraints.{kind}.{op}")
            m[f"constraints.{kind}.{op}_n"] = count(f"constraints.{kind}.{op}")
        m[f"constraints.{kind}.rebuild_us"] = mean_us(f"constraints.{kind}.rebuild")
    m["state.set_all_us"] = mean_us("state.set_all")
    m["state.set_all_n"] = count("state.set_all")
    m["engine.select_us_per_iter"] = select_s / iterations * 1e6
    m["engine.select_share"] = select_s / search_s
    m["engine.probes_per_iter"] = count("engine.probe_parts") / iterations
    m["engine.commit_ratio"] = count("engine.commit") / iterations
    m["engine.restarts"] = count("state.set_all") - n_searches
    m["engine.iter_us.p50"] = percentile(gaps, 50) * search_scale * 1e6
    m["engine.iter_us.p99"] = percentile(gaps, 99) * search_scale * 1e6
    m["engine.iter_us.n"] = len(gaps)
    for name in ("generate", "dumps", "loads", "validate", "build"):
        m[f"instance.{name}_ms"] = mean_us(f"instance.{name}") / 1e3
    m["geometry.grid_ms"] = mean_us("geometry.grid") / 1e3
    return m


# ---------------------------------------------------------------------------
# one workload in this process

def measure(instance, model, w: Workload, order, seconds: float,
            tracer: Optional[Tracer]):
    """An untraced pass, then one traced pass when tracing, else more
    untraced passes while they fit in ``seconds``.  Returns the first
    pass's results, every pass's search intervals, and the seeds that a
    later pass did not replay exactly."""
    first = {}
    passes = [run_pass(instance, model, w, order, first.__setitem__)]
    diverged = set()

    def compare(seed, result):
        if not same_run(first[seed], result):
            diverged.add(seed)

    if tracer:
        instrument(tracer, instance, model)
        passes.append(run_pass(instance, model, w, order, compare, tracer))
        tracer.unwrap_all()
    else:
        while sum(map(_wall, passes)) + _wall(passes[-1]) <= seconds:
            passes.append(run_pass(instance, model, w, order, compare))
    return first, passes, diverged


def check_batch(w: Workload, instance, results):
    """Verify every result from scratch; returns verified totals by seed,
    the check intervals and the seeds that failed."""
    verified = {}
    intervals = []
    failed = set()
    for seed, result in results.items():
        start = time.perf_counter()
        verified[seed], problems = verify(instance, result)
        intervals.append((start, time.perf_counter()))
        for problem in problems:
            print(f"{w.name} seed {seed}: {problem}")
        if problems:
            failed.add(seed)
    return verified, intervals, failed


def run_workload(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    order = list(w.seeds)
    random.Random(seed).shuffle(order)
    tracer = Tracer() if traced else None
    with SpeedSampler() as sampler:
        setups, ((instance, model), (_, fresh_model)) = set_up_repeatedly(w, tracer)
        first, passes, diverged = measure(instance, model, w, order, seconds, tracer)
        verified, checks, failed_seeds = check_batch(w, instance, first)
        replay_cfg = replace(instance.search, seed=REPLAY_SEED_BASE + seed,
                             max_iterations=w.replay_iters)
        replay_ok = same_run(search(model, replay_cfg), search(fresh_model, replay_cfg))

    def corrected(intervals):
        return sum(sampler.corrected(start, end) for start, end in intervals)

    for s in sorted(diverged):
        print(f"{w.name} seed {s}: a later pass did not replay the first")
    if not replay_ok:
        print(f"{w.name} seed {replay_cfg.seed}: replay on a fresh model differs")
    attempted = len(order) + 1
    failed = len(failed_seeds | diverged) + (0 if replay_ok else 1)
    exact = {
        "solved_frac": (sum(v <= TOLERANCE for v in verified.values()) / len(order), "ratio"),
        "best_violation": (sum(verified.values()), "violation"),
        "failed_frac": (failed / attempted, "ratio"),
        "iterations": (sum(r.iterations for r in first.values()), "count"),
    }
    if traced:
        metrics = layer_metrics(
            tracer, first, len(order),
            setup_scale=corrected(setups) / _wall(setups),
            search_scale=corrected(passes[1]) / _wall(passes[1]),
        )
        metrics["engine.solved_frac"] = exact["solved_frac"][0]
        metrics["engine.best_violation"] = exact["best_violation"][0]
        metrics["verify.check_ms"] = statistics.median(corrected([c]) for c in checks) * 1e3
        metrics["trace.overhead"] = corrected(passes[1]) / corrected(passes[0]) - 1
        tracer.write(OUT / f"spans-{w.name}")
        units = metric_units("per_layer")
    else:
        solve_s = statistics.median(corrected(p) for p in passes)
        metrics = {
            "setup_s": statistics.median(corrected([i]) for i in setups),
            "iters_per_s": exact["iterations"][0] / solve_s,
            "solve_s": solve_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")

    print(f"workload {w.name} seed {seed} trace {int(traced)} passes {len(passes)} "
          f"set-ups {len(setups)} speed samples {len(sampler.cost)}")
    print(f"  wall-clock: setup_s {statistics.median(end - start for start, end in setups)}"
          f" solve_s {statistics.median(map(_wall, passes[:1] if traced else passes))}")
    for name, (value, unit) in exact.items():
        print(f"  {name} {value} {unit}")
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def metric_units(key: str) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json`` (``end_to_end`` or
    ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if search is None or not (SRC / "sectorsearch").is_dir():
        print(f"error: the sectorsearch package is not in {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(report))
        return 0

    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
