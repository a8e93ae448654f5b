"""Flight plans: timed region sequences and the values derived from them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import InputError
from .geometry import Geometry, OrderedPath


@dataclass(frozen=True)
class FlightPlan:
    """Sequence of (vertex, entry time, exit time) legs.

    Times are integers (seconds).  A valid plan has strictly positive
    dwell per leg, contiguous timestamps, adjacent consecutive regions and
    no revisited region (the visited sequence is a simple path).
    """

    legs: Tuple[Tuple[int, int, int], ...]

    def validate(self, g: Geometry) -> None:
        validate(self, g)

    def __len__(self) -> int:
        return len(self.legs)


def validate(plan: FlightPlan, g: Geometry) -> None:
    """Raise :class:`InputError` naming the first violated invariant."""
    if not plan.legs:
        raise InputError("leg 0: flight plan is empty")
    seen = set()
    for i, (v, t_in, t_out) in enumerate(plan.legs):
        if v not in g.vertices:
            raise InputError(f"leg {i}: unknown vertex {v}")
        if t_in >= t_out:
            raise InputError(f"leg {i}: zero or negative dwell ({t_in} >= {t_out})")
        if i > 0:
            prev_v, _, prev_out = plan.legs[i - 1]
            if prev_out != t_in:
                raise InputError(
                    f"leg {i}: time gap, previous exit {prev_out} != entry {t_in}"
                )
            if v not in g.adjacent(prev_v):
                raise InputError(f"leg {i}: vertices {prev_v} and {v} are not adjacent")
        if v in seen:
            raise InputError(f"leg {i}: vertex {v} revisited")
        seen.add(v)


def dwell_values(plan: FlightPlan) -> List[int]:
    """Per-leg durations, in order."""
    return [t_out - t_in for _, t_in, t_out in plan.legs]


def visited_path(plan: FlightPlan) -> OrderedPath:
    """The visited vertices in order, as the ``interior`` of a path.

    Assumes the plan is valid; call :func:`validate` first.
    """
    return OrderedPath([v for v, _, _ in plan.legs])
