"""Probe-cost scaling measurements.

Border-move probes are contracted to cost time linear in the vertex
degree (constant on grids), not in the instance size.  The benchmark
builds square grids of increasing size, pre-collects border moves, and
times the paper-fast and the exact connectedness probes, the balance
probe and the path-interior probe over identical move batches.  The
component index keeps a split until the next commit, and the batches
repeat moves and commit nothing, so its kept splits are dropped before
every probe: each exact probe times a fresh split search.  On these
smooth region colourings most of those searches end at their first
stage, the grouping of v's same-component neighbours by common
neighbours, so the exact probe mostly times O(degree^2) reads rather
than a breadth-first search.  A second batch therefore probes the exact
connectedness constraint on a two-colour brick wall, where the grouping
settles no split and every vertex with two or more same-colour
neighbours is searched: 1-wide bricks split in two, a mortar cell's
neighbours meet only around a brick, and the mortar's T-junctions start
three searches.  The bricks keep one size at every grid size, so these
searches must cost the same at every size too.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict, List, Sequence, Tuple

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
    constraints = {
        "connected": connected,
        "connected-exact": connected_exact,
        "balanced": balanced,
        "nonborder": non_border,
    }
    return state, constraints, _border_moves(state, rng)


def _bricks(side: int, seed: int):
    """A side x side grid coloured as a brick wall: the even rows and
    one cell in four of each odd row are mortar (colour 2), the rest are
    bricks (colour 1) three cells long, and the mortar cells of the odd
    rows are offset by two from one odd row to the next.  Returns the
    state, an exact connectedness constraint and its shuffled border
    moves."""
    geometry = grid(side, side, dim=2)
    colours = {}
    for y in range(side):
        gap = 3 if y % 4 == 1 else 1
        for x in range(side):
            colours[x + side * y] = 2 if y % 2 == 0 or x % 4 == gap else 1
    state = ColourState(geometry, 2, colours=colours)
    connected = ConnectedConstraint(state, "=", 2)
    return state, connected, _border_moves(state, random.Random(seed))


def _border_moves(state: ColourState, rng: random.Random) -> List[Tuple[int, int]]:
    """Every move of a vertex to the colour of a neighbour, shuffled."""
    geometry = state.geometry
    moves: List[Tuple[int, int]] = []
    for v in sorted(geometry.vertices):
        cv = state.colour(v)
        for c in sorted({state.colour(w) for w in geometry.adjacent(v)} - {cv}):
            moves.append((v, c))
    rng.shuffle(moves)
    return moves


def _time_probes(
    constraint, moves: Sequence[Tuple[int, int]], forget: Callable[[], None]
) -> float:
    """Mean seconds per probe over one pass through ``moves``, calling
    ``forget`` before each probe."""
    start = time.perf_counter()
    for v, c in moves:
        forget()
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
        state, constraints, moves = _setup(side, seed)
        bricks, connected, brick_moves = _bricks(side, seed)
        if not moves or not brick_moves:
            raise RuntimeError("no border moves available for the benchmark")
        batch = [moves[i % len(moves)] for i in range(probes)]
        forget = state.component_index().forget_splits
        timed = {name: (c, batch, forget) for name, c in constraints.items()}
        timed["connected-bricks"] = (
            connected,
            [brick_moves[i % len(brick_moves)] for i in range(probes)],
            bricks.component_index().forget_splits,
        )
        for constraint, batch, _ in timed.values():
            constraint.probe_assign(*batch[0])  # warm caches
        batches[size] = timed
    means: Dict[str, Dict[int, float]] = {}
    for r in range(ROUNDS):
        k = r % len(sizes)
        for size in list(sizes[k:]) + list(sizes[:k]):
            for name, (constraint, batch, forget) in batches[size].items():
                by_size = means.setdefault(name, {})
                mean = _time_probes(constraint, batch, forget)
                by_size[size] = min(by_size.get(size, math.inf), mean)
    top, runner_up = sorted(sizes)[-1], sorted(sizes)[-2]
    ratios = {
        name: by_size[top] / by_size[runner_up] for name, by_size in means.items()
    }
    return {"sizes": list(sizes), "means": means, "ratios": ratios}


def format_report(report: Dict) -> str:
    lines = ["probe cost scaling (mean microseconds per probe)"]
    header = f"{'constraint':<17}" + "".join(f"{size:>12}" for size in report["sizes"])
    lines.append(header)
    for name, by_size in sorted(report["means"].items()):
        row = f"{name:<17}" + "".join(
            f"{by_size[size] * 1e6:>12.3f}" for size in report["sizes"]
        )
        lines.append(row)
    lines.append("ratio of means, two largest sizes:")
    for name, ratio in sorted(report["ratios"].items()):
        lines.append(f"  {name}: {ratio:.3f}")
    return "\n".join(lines)
