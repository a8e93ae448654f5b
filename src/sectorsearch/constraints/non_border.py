"""Keeping a flight's visited path away from sector borders.

Every vertex on the path must have all its off-path neighbours coloured
like itself.  On one-dimensional geometries there are no off-path
neighbours and the constraint holds trivially.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..state import ColourState, with_bit
from ..geometry import OrderedPath
from .base import Constraint


def non_border_check(state: ColourState, path: OrderedPath) -> bool:
    """Cache-free semantics of the constraint."""
    base = state.env.base
    on_path = set(path.interior)
    for v in path.interior:
        cv = state.colour(v)
        for w in base.adjacent(v):
            if w not in on_path and state.colour(w) != cv:
                return False
    return True


class NonBorderConstraint(Constraint):
    def __init__(self, state: ColourState, path: OrderedPath, id: str = "nonborder"):
        super().__init__(state)
        self.path = path
        self.id = id
        base = state.env.base
        on_path = set(path.interior)
        self.off_path: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(base.adjacent(v) - on_path)) for v in path.interior
        }
        # off-path vertices adjacent to the path, keyed to their path neighbours
        side: Dict[int, list] = {}
        for v in path.interior:
            for w in self.off_path[v]:
                side.setdefault(w, []).append(v)
        self.path_neighbours: Dict[int, Tuple[int, ...]] = {
            w: tuple(sorted(vs)) for w, vs in side.items()
        }
        self.rebuild()

    def rebuild(self) -> None:
        self._vv: Dict[int, int] = {}
        state = self.state
        for v in self.path.interior:
            cv = state.colour(v)
            self._vv[v] = sum(1 for w in self.off_path[v] if state.colour(w) != cv)
        self._total = sum(self._vv.values())
        self._conflicts = state.mask_of(v for v, k in self._vv.items() if k)

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._total

    def var_violation(self, v: int) -> int:
        return self._vv.get(v, 0)

    def conflicts(self) -> int:
        return self._conflicts

    def check(self) -> bool:
        return non_border_check(self.state, self.path)

    # differentiation ----------------------------------------------------
    def probe_assign(self, v: int, colour: int) -> int:
        state = self.state
        cv = state.colour(v)
        if colour == cv:
            return 0
        if v in self.off_path:
            return sum(
                (1 if state.colour(w) != colour else 0)
                - (1 if state.colour(w) != cv else 0)
                for w in self.off_path[v]
            )
        neighbours = self.path_neighbours.get(v)
        if neighbours is None:
            return 0
        # a recoloured off-path vertex changes the terms it appears in
        return sum(
            (1 if colour != state.colour(u) else 0)
            - (1 if cv != state.colour(u) else 0)
            for u in neighbours
        )

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        if old == new:
            return
        state = self.state
        if v in self.off_path:
            fresh = sum(1 for w in self.off_path[v] if state.colour(w) != new)
            self._total += fresh - self._vv[v]
            self._vv[v] = fresh
            self._conflicts = with_bit(self._conflicts, state.rank[v], fresh > 0)
            return
        neighbours = self.path_neighbours.get(v)
        if neighbours is None:
            return
        for u in neighbours:
            cu = state.colour(u)
            delta = (1 if new != cu else 0) - (1 if old != cu else 0)
            if delta:
                self._vv[u] += delta
                self._total += delta
                self._conflicts = with_bit(
                    self._conflicts, state.rank[u], self._vv[u] > 0
                )
