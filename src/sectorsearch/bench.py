"""Probe-cost scaling measurements.

Border-move probes are contracted to cost time linear in the vertex
degree (constant on grids), not in the instance size.  The benchmark
builds square grids of increasing size, pre-collects border moves, and
times the paper-fast and the exact connectedness probes, the balance
probe and the path-interior probe over identical move batches.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Sequence, Tuple

from .constraints import (
    BalancedConstraint,
    ConnectedConstraint,
    NonBorderConstraint,
)
from .geometry import grid
from .state import ColourState, grow_regions
from .traffic import FlightPlan, visited_path


#: timing rounds of :func:`bench_probe_scaling`
ROUNDS = 5


def _setup(side: int, seed: int):
    rng = random.Random(seed)
    geometry = grid(side, side, dim=2)
    n = 4
    state = ColourState(geometry, n)
    state.set_all(grow_regions(geometry, n, rng))
    workloads = {v: rng.randint(1, 9) for v in sorted(geometry.vertices)}
    connected = ConnectedConstraint(state, "=", n, mode="paper-fast")
    connected_exact = ConnectedConstraint(state, "=", n)
    balanced = BalancedConstraint(state, workloads, delta_scaled=0)
    legs = []
    t = 0
    for i in range(side):
        legs.append((i, t, t + 60))  # straight flight along the first row
        t += 60
    non_border = NonBorderConstraint(state, visited_path(FlightPlan(tuple(legs))))
    moves: List[Tuple[int, int]] = []
    for v in sorted(geometry.vertices):
        cv = state.colour(v)
        for c in sorted({state.colour(w) for w in geometry.adjacent(v)} - {cv}):
            moves.append((v, c))
    rng.shuffle(moves)
    constraints = {
        "connected": connected,
        "connected-exact": connected_exact,
        "balanced": balanced,
        "nonborder": non_border,
    }
    return state, constraints, moves


def _time_probes(constraint, moves: Sequence[Tuple[int, int]]) -> float:
    """Mean seconds per probe over one pass through ``moves``."""
    start = time.perf_counter()
    for v, c in moves:
        constraint.probe_assign(v, c)
    return (time.perf_counter() - start) / len(moves)


def bench_probe_scaling(
    sizes: Sequence[int] = (100, 1000, 10000),
    probes: int = 3000,
    seed: int = 0,
) -> Dict:
    """Mean probe times per constraint per instance size, plus the ratio
    of means between the two largest sizes.

    Every size is set up first; the timing then runs in ``ROUNDS``
    interleaved rounds, each a pass per size and constraint with the
    order of the sizes rotated by one, and keeps each size's best pass.
    A burst of CPU contention from elsewhere thus slows one round of all
    sizes rather than one side of the ratio.
    """
    batches = {}
    for size in sizes:
        side = max(int(round(math.sqrt(size))), 2)
        _, constraints, moves = _setup(side, seed)
        if not moves:
            raise RuntimeError("no border moves available for the benchmark")
        batch = [moves[i % len(moves)] for i in range(probes)]
        for constraint in constraints.values():
            constraint.probe_assign(*batch[0])  # warm caches
        batches[size] = (constraints, batch)
    means: Dict[str, Dict[int, float]] = {}
    for r in range(ROUNDS):
        k = r % len(sizes)
        for size in list(sizes[k:]) + list(sizes[:k]):
            constraints, batch = batches[size]
            for name, constraint in constraints.items():
                by_size = means.setdefault(name, {})
                by_size[size] = min(by_size.get(size, math.inf), _time_probes(constraint, batch))
    top, runner_up = sorted(sizes)[-1], sorted(sizes)[-2]
    ratios = {
        name: by_size[top] / by_size[runner_up] for name, by_size in means.items()
    }
    return {"sizes": list(sizes), "means": means, "ratios": ratios}


def format_report(report: Dict) -> str:
    lines = ["probe cost scaling (mean microseconds per probe)"]
    header = f"{'constraint':<15}" + "".join(f"{size:>12}" for size in report["sizes"])
    lines.append(header)
    for name, by_size in sorted(report["means"].items()):
        row = f"{name:<15}" + "".join(
            f"{by_size[size] * 1e6:>12.3f}" for size in report["sizes"]
        )
        lines.append(row)
    lines.append("ratio of means, two largest sizes:")
    for name, ratio in sorted(report["ratios"].items()):
        lines.append(f"  {name}: {ratio:.3f}")
    return "\n".join(lines)
