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
    on_path = set(path.interior)
    for v in path.interior:
        cv = state.colour(v)
        for w in state.geometry.adjacent(v):
            if w not in on_path and state.colour(w) != cv:
                return False
    return True


class NonBorderConstraint(Constraint):
    def __init__(self, state: ColourState, path: OrderedPath, id: str = "nonborder"):
        super().__init__(state)
        self.path = path
        self.id = id
        on_path = set(path.interior)
        self.off_path: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(state.geometry.adjacent(v) - on_path)) for v in path.interior
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
        colour = state.colours()
        for v in self.path.interior:
            cv = colour[v]
            self._vv[v] = sum(1 for w in self.off_path[v] if colour[w] != cv)
        self._total = sum(self._vv.values())
        self._conflicts = state.mask_of(v for v, k in self._vv.items() if k)

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._total

    def scope(self):
        """The path and the path's off-path neighbours, the only vertices
        whose colour a term reads."""
        return [*self.off_path, *self.path_neighbours]

    def var_violation(self, v: int) -> int:
        return self._vv.get(v, 0)

    def conflicts(self) -> int:
        return self._conflicts

    def check(self) -> bool:
        return non_border_check(self.state, self.path)

    # differentiation ----------------------------------------------------
    def _term_changes(self, v: int, before: int, after: int) -> Dict[int, int]:
        """Path vertex -> signed change of its term, for every term the
        move ``colour(v): before -> after`` changes.  Only the other
        vertices' colours are read, so a probe (before the move) and a
        commit (after it) agree."""
        state = self.state
        if v in self.off_path:
            delta = sum(
                (state.colour(w) != after) - (state.colour(w) != before)
                for w in self.off_path[v]
            )
            return {v: delta} if delta else {}
        # a recoloured off-path vertex changes the terms it appears in
        changes = {}
        for u in self.path_neighbours.get(v, ()):
            cu = state.colour(u)
            delta = (after != cu) - (before != cu)
            if delta:
                changes[u] = delta
        return changes

    def probe_assign(self, v: int, colour: int) -> int:
        before = self.state.colour(v)
        if colour == before:
            return 0
        return sum(self._term_changes(v, before, colour).values())

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        rank = self.state.rank
        for u, delta in self._term_changes(v, old, new).items():
            self._vv[u] += delta
            self._total += delta
            self._conflicts = with_bit(self._conflicts, rank[u], self._vv[u] > 0)
