"""Compactness of coloured regions, in two variants.

Mode "A" sums, per connected component, the excess of its free border
area over the surface of an equal-volume sphere (circle perimeter in 2D).
Mode "B" drops the component structure and bounds the total border area of
the colouring: every interior facet between differently coloured vertices
counts once, every facet on the geometry boundary counts once.

Mode B is kept in doubled integer units internally (the per-vertex border
sum counts interior facets twice and boundary facets twice once the
outside vertex's own border term is added), so its arithmetic is exact.
The only floating point in this module is the sphere term of mode A.
Its per-component terms come from :func:`sectorsearch.state.components`,
which lists the components in the order of the start vertices it is
given, so the float sums add up in one fixed order.

A move changes the border areas of the moved vertex and of its
neighbours only; one pass over its facets yields them, and probes and
commits both start from that pass.  Mode B probes and the mode A fast
probe (the change of the moved vertex's own border area) cost
O(degree).  The exact mode A probe recomputes the terms of the old and
the new colour class over the changed border areas, so it costs the two
classes, not the whole geometry.
"""

from __future__ import annotations

import math
from collections import ChainMap
from typing import Callable, Dict, Mapping, Set

from ..errors import InputError
from ..state import ColourState, class_components, with_bit
from .base import Constraint

MODES = ("A", "B")
WEIGHTS = ("identity", "square")

_WEIGHT_FN: Dict[str, Callable[[int], int]] = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
}


def sphere_surface(volume, dim: int) -> float:
    """Surface of the sphere (3D) or circle (2D) of the given volume."""
    if volume < 0:
        raise InputError(f"volume must be non-negative, got {volume}")
    if dim == 3:
        return math.pi ** (1.0 / 3.0) * (6.0 * volume) ** (2.0 / 3.0)
    if dim == 2:
        return 2.0 * math.sqrt(math.pi * volume)
    raise InputError(f"dim must be 2 or 3, got {dim}")


class CompactConstraint(Constraint):
    def __init__(
        self,
        state: ColourState,
        threshold: int,
        mode: str = "B",
        weight: str = "identity",
        exact_probe: bool = False,
        id: str = "compact",
    ):
        super().__init__(state)
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
        if weight not in WEIGHTS:
            raise InputError(f"unknown weight {weight!r}, expected one of {WEIGHTS}")
        self.mode = mode
        self.threshold = int(threshold)
        self.weight = weight
        self._f = _WEIGHT_FN[weight]
        self.exact_probe = exact_probe
        self.id = id
        self.rebuild()

    def rebuild(self) -> None:
        state = self.state
        self.border_cache: Dict[int, int] = {
            v: state.border_area(v) for v in state.env.vertices
        }
        self._outside = state.env.outside_area()
        # border areas are never negative, so f(b) > 0 iff b > 0
        self._conflicts = state.mask_of(v for v, b in self.border_cache.items() if b)
        if self.mode == "B":
            self._total2 = sum(self._f(b) for b in self.border_cache.values()) + self._f(
                self._outside
            )
        else:
            self.members: Dict[int, Set[int]] = {c: set() for c in range(1, state.n + 1)}
            for v in state.env.vertices:
                self.members[state.colour(v)].add(v)
            self._contrib: Dict[int, float] = {}
            for c in self.members:
                self._refresh_colour(c)

    def _refresh_colour(self, c: int) -> None:
        self._contrib[c] = self._class_term(self.members[c], self.border_cache)

    def _class_term(self, members: Set[int], border: Mapping[int, int]) -> float:
        """Sphericity discrepancy of one colour class: the sum over its
        components of border area minus the equal-volume sphere surface."""
        base = self.state.env.base
        dim = self.state.env.dim
        terms = []
        for comp in class_components(base, members):
            sigma = sum(border[u] for u in comp)
            nu = sum(base.volume(u) for u in comp)
            terms.append(sigma - sphere_surface(nu, dim))
        return sum(terms)

    # measurement -------------------------------------------------------
    def border_area(self, v: int) -> int:
        return self.border_cache[v]

    def var_violation(self, v: int) -> int:
        return self._f(self.border_cache[v])

    def conflicts(self) -> int:
        return self._conflicts

    def violation(self) -> float:
        if self.mode == "B":
            return max(self._total2 - 2 * self.threshold, 0) / 2.0
        return max(sum(self._contrib.values()) - self.threshold, 0.0)

    def check(self) -> bool:
        """Cache-free semantics at the current state."""
        state = self.state
        if self.mode == "B":
            total2 = sum(
                self._f(state.border_area(v)) for v in state.env.vertices
            ) + self._f(state.env.outside_area())
            return total2 <= 2 * self.threshold
        dim = state.env.dim
        total = sum(
            comp.border_area - sphere_surface(comp.volume, dim)
            for comp in state.connected_components()
        )
        return total <= self.threshold

    # differentiation ----------------------------------------------------
    def neighbour_delta(self, w: int, v: int, new_colour: int) -> int:
        """Signed area change of ``Border(w)`` under ``colour(v) := new``."""
        cv = self.state.colour(v)
        cw = self.state.colour(w)
        area = self.state.env.edge_area(v, w)
        if cv != cw and cw == new_colour:
            return -area
        if cv == cw and cw != new_colour:
            return +area
        return 0

    def _border_move(self, v: int, before: int, after: int) -> Dict[int, int]:
        """The border areas the move ``colour(v): before -> after`` changes.

        Maps ``v`` to its new border area and every real neighbour whose
        border changes to its new one, in one pass over v's facets.  Only
        the neighbours' colours and the cached areas are read, so a probe
        (before the move) and a commit (after it) get the same answer.
        """
        state = self.state
        env = state.env
        border = self.border_cache
        changed: Dict[int, int] = {}
        new_bv = 0
        # the outside vertex has no colour of 1..n, so it is never changed
        for w in env.adjacent(v):
            cw = state.colour(w)
            area = env.edge_area(v, w)
            if cw == after:
                changed[w] = border[w] - area
            else:
                new_bv += area
                if cw == before:
                    changed[w] = border[w] + area
        changed[v] = new_bv
        return changed

    def _total2_change(self, changed: Mapping[int, int]) -> int:
        f = self._f
        border = self.border_cache
        return sum(f(b) - f(border[u]) for u, b in changed.items())

    def probe_assign(self, v: int, colour: int) -> float:
        before = self.state.colour(v)
        if colour == before:
            return 0.0
        changed = self._border_move(v, before, colour)
        if self.mode == "B":
            total2 = self._total2 + self._total2_change(changed)
            return max(total2 - 2 * self.threshold, 0) / 2.0 - self.violation()
        if not self.exact_probe:
            # cheap approximation: the change of v's own border area
            return changed[v] - self.border_cache[v]
        # only the old and the new colour class change their terms
        border = ChainMap(changed, self.border_cache)
        terms = {
            before: self._class_term(self.members[before] - {v}, border),
            colour: self._class_term(self.members[colour] | {v}, border),
        }
        total = sum(terms.get(c, t) for c, t in self._contrib.items())
        return max(total - self.threshold, 0.0) - self.violation()

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        if old == new:
            return
        changed = self._border_move(v, old, new)
        if self.mode == "B":
            self._total2 += self._total2_change(changed)
        rank = self.state.rank
        mask = self._conflicts
        for u, b in changed.items():
            self.border_cache[u] = b
            mask = with_bit(mask, rank[u], b > 0)
        self._conflicts = mask
        if self.mode == "A":
            self.members[old].discard(v)
            self.members[new].add(v)
            self._refresh_colour(old)
            self._refresh_colour(new)
