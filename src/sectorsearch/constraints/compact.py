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
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Set, Tuple

from ..errors import InputError
from ..geometry import BOTTOM
from ..state import ColourState, class_components, components, with_bit
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
        base = self.state.env.base
        dim = self.state.env.dim
        terms = []
        for comp in class_components(base, self.members[c]):
            sigma = sum(self.border_cache[u] for u in comp)
            nu = sum(base.volume(u) for u in comp)
            terms.append(sigma - sphere_surface(nu, dim))
        self._contrib[c] = sum(terms)

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

    def probe_assign(self, v: int, colour: int) -> float:
        state = self.state
        d = state.colour(v)
        if colour == d:
            return 0.0
        env = state.env
        if self.mode == "B":
            new_bv = sum(
                env.edge_area(v, w)
                for w in env.adjacent(v)
                if state.colour(w) != colour
            )
            change = self._f(new_bv) - self._f(self.border_cache[v])
            for w in env.adjacent(v):
                if w == BOTTOM:
                    continue
                delta = self.neighbour_delta(w, v, colour)
                if delta:
                    bw = self.border_cache[w]
                    change += self._f(bw + delta) - self._f(bw)
            total2 = self._total2 + change
            return (
                max(total2 - 2 * self.threshold, 0) - max(self._total2 - 2 * self.threshold, 0)
            ) / 2.0
        if self.exact_probe:
            after = max(self._scratch_discrepancy(v, colour) - self.threshold, 0.0)
            return after - self.violation()
        # cheap approximation: the change of v's own border area
        return sum(self.neighbour_delta(w, v, colour) for w in env.adjacent(v))

    def _scratch_discrepancy(self, v: int, colour: int) -> float:
        """Total sphericity discrepancy with ``colour(v) := colour`` applied
        hypothetically; linear in the geometry size."""
        state = self.state
        env = state.env
        base = env.base

        def col(u: int) -> int:
            if u == v:
                return colour
            return state.colour(u)

        classes: Dict[int, Set[int]] = {}
        for u in env.vertices:
            classes.setdefault(col(u), set()).add(u)
        total = 0.0
        dim = env.dim
        for comp in components(base, env.vertices, lambda s: classes[col(s)]):
            c = col(next(iter(comp)))
            sigma = 0
            nu = 0
            for u in comp:
                nu += base.volume(u)
                for w in env.adjacent(u):
                    if col(w) != c:
                        sigma += env.edge_area(u, w)
            total += sigma - sphere_surface(nu, dim)
        return total

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        if old == new:
            return
        state = self.state
        env = state.env
        changes: List[Tuple[int, int]] = []
        for w in env.adjacent(v):
            if w == BOTTOM:
                continue
            cw = state.colour(w)
            delta = 0
            area = env.edge_area(v, w)
            if old != cw and cw == new:
                delta = -area
            elif old == cw and cw != new:
                delta = +area
            if delta:
                changes.append((w, delta))
        new_bv = state.border_area(v)
        if self.mode == "B":
            self._total2 += self._f(new_bv) - self._f(self.border_cache[v])
            for w, delta in changes:
                bw = self.border_cache[w]
                self._total2 += self._f(bw + delta) - self._f(bw)
        self.border_cache[v] = new_bv
        rank = state.rank
        mask = with_bit(self._conflicts, rank[v], new_bv > 0)
        for w, delta in changes:
            self.border_cache[w] += delta
            mask = with_bit(mask, rank[w], self.border_cache[w] > 0)
        self._conflicts = mask
        if self.mode == "A":
            self.members[old].discard(v)
            self.members[new].add(v)
            self._refresh_colour(old)
            self._refresh_colour(new)
