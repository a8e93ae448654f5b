"""Compactness of coloured regions, in two variants.

Mode "A" sums, per connected component, the excess of its free border
area over the surface of an equal-volume sphere (circle perimeter in 2D).
Mode "B" drops the component structure and bounds the total border area of
the colouring: every interior facet between differently coloured vertices
counts once, every facet on the geometry boundary counts once.

Both modes keep one integer border total over the per-vertex border
areas.  Mode B sums their weights plus the weight of the geometry's
outside area, in doubled units (the per-vertex sum counts interior
facets twice and boundary facets once, the outside area counts them
once more), so its arithmetic is exact.  Mode A sums the plain areas,
whatever the weight, which there sets only ``var_violation``: a
component's border area is the sum of its vertices', so mode A's total
is the border total minus the spheres of all components, which depend
only on the components' volumes.

A move changes the border areas of the moved vertex and of its
neighbours only; one pass over its neighbours yields them, and probes and
commits both start from that pass, so the border total follows a move in
O(degree).  The mode A fast probe (the change of the moved vertex's own
border area) costs the same.

Mode A keeps the volume nu of every component, keyed by the labels of
the state's component index, and per colour the sphere surface of each
of its components.  One routine computes the volumes of the components a
move leaves behind and forms: the closed pieces of a split, the rest of
the old component, and the new colour's components merged with the moved
vertex.  The exact probe feeds it the pieces of the index's split search
and the labels of v's neighbours; a commit feeds it the index's record of
the same move.  So probes and commits cost the smaller sides of a split,
never a whole colour class.  The spheres are summed with
:func:`math.fsum` per colour, and so are the colours' sums; ``fsum`` is
correctly rounded whatever the order, so a probe equals the committed
change to the last bit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import InputError
from ..state import ColourState, with_bit
from .base import Constraint

MODES = ("A", "B")
WEIGHTS = ("identity", "square")
#: mode A probing: the moved vertex's own border change, or the committed change
PROBES = ("fast", "exact")

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
        weight_fn: str = "identity",
        probe: str = "fast",
        id: str = "compact",
    ):
        super().__init__(state)
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
        if weight_fn not in WEIGHTS:
            raise InputError(f"unknown weight_fn {weight_fn!r}, expected one of {WEIGHTS}")
        if probe not in PROBES:
            raise InputError(f"unknown probe {probe!r}, expected one of {PROBES}")
        self.mode = mode
        self.threshold = int(threshold)
        self.weight_fn = weight_fn
        self._f = _WEIGHT_FN[weight_fn]
        # the weight the border total sums; mode A subtracts spheres from
        # plain areas
        self._g = self._f if mode == "B" else _WEIGHT_FN["identity"]
        self.probe = probe
        self.id = id
        self.rebuild()

    def rebuild(self) -> None:
        state = self.state
        geometry = state.geometry
        colour = state.colours()
        border_areas = geometry.border_areas
        # the geometry's own tables: every vertex read here is known to it
        edge_areas = geometry._edge_areas
        g = self._g
        total = 0
        border: Dict[int, int] = {}
        conflicts = bytearray((len(state.order) + 7) // 8)
        # one pass in sorted order, so r is v's bit in a vertex mask
        for r, v in enumerate(state.order):
            cv = colour[v]
            b = border_areas.get(v, 0)
            for w, area in edge_areas[v].items():
                if colour[w] != cv:
                    b += area
            border[v] = b
            # border areas are never negative, so g(b) > 0 iff b > 0
            if b:
                conflicts[r >> 3] |= 1 << (r & 7)
                total += g(b)
        self.border_cache = border
        self._conflicts = int.from_bytes(conflicts, "little")
        if self.mode == "B":
            self.border_total = total + g(geometry.outside_area())
            self.sphere_total = 0.0  # mode B subtracts no spheres
            return
        self.border_total = total
        self.index = state.component_index()
        label = self.index.label
        volume = geometry._volume
        nu: Dict[int, int] = dict.fromkeys(self.index.size, 0)
        for v, lab in label.items():
            nu[lab] += volume[v]
        self.nu = nu
        dim = geometry.dim
        #: per colour, the sphere surface of each of its components' labels
        self.spheres: List[Dict[int, float]] = [{} for _ in range(state.n + 1)]
        # one vertex of each label tells the label's colour
        for lab, v in dict(zip(label.values(), label)).items():
            self.spheres[colour[v]][lab] = sphere_surface(nu[lab], dim)
        self.sphere_sums: List[float] = [math.fsum(s.values()) for s in self.spheres]
        self.sphere_total = math.fsum(self.sphere_sums)

    # measurement -------------------------------------------------------
    def var_violation(self, v: int) -> int:
        return self._f(self.border_cache[v])

    def conflicts(self) -> int:
        return self._conflicts

    def violation(self) -> float:
        return self._violation(self.border_total, self.sphere_total)

    def _violation(self, border_total: int, sphere_total: float) -> float:
        if self.mode == "B":
            return max(border_total - 2 * self.threshold, 0) / 2.0
        return max(border_total - sphere_total - self.threshold, 0.0)

    def check(self) -> bool:
        """Cache-free semantics at the current state."""
        state = self.state
        geometry = state.geometry
        if self.mode == "B":
            total2 = sum(
                self._f(state.border_area(v)) for v in geometry.vertices
            ) + self._f(geometry.outside_area())
            return total2 <= 2 * self.threshold
        dim = geometry.dim
        total = sum(
            comp.border_area - sphere_surface(comp.volume, dim)
            for comp in state.connected_components()
        )
        return total <= self.threshold

    # differentiation ----------------------------------------------------
    def _border_move(self, v: int, before: int, after: int) -> Dict[int, int]:
        """The border areas the move ``colour(v): before -> after`` changes.

        Maps ``v`` to its new border area and every neighbour whose border
        changes to its new one, in one pass over v's neighbours.  Only
        the neighbours' colours and the cached areas are read, so a probe
        (before the move) and a commit (after it) get the same answer.
        """
        state = self.state
        border = self.border_cache
        colour = state.colours()
        changed: Dict[int, int] = {}
        # the facets with the outside stay border whatever the colour
        new_bv = state.geometry.border_areas.get(v, 0)
        for w, area in state.geometry.edge_areas(v).items():
            cw = colour[w]
            if cw == after:
                changed[w] = border[w] - area
            else:
                new_bv += area
                if cw == before:
                    changed[w] = border[w] + area
        changed[v] = new_bv
        return changed

    def _border_total_change(self, changed: Mapping[int, int]) -> int:
        g = self._g
        border = self.border_cache
        return sum(g(b) - g(border[u]) for u, b in changed.items())

    def probe_assign(self, v: int, colour: int) -> float:
        before = self.state.colour(v)
        if colour == before:
            return 0.0
        changed = self._border_move(v, before, colour)
        if self.mode == "A" and self.probe == "fast":
            # cheap approximation: the change of v's own border area
            return changed[v] - self.border_cache[v]
        border_total = self.border_total + self._border_total_change(changed)
        sphere_total = self._sphere_total_after(v, before, colour) if self.mode == "A" else 0.0
        return self._violation(border_total, sphere_total) - self.violation()

    def _sphere_total_after(self, v: int, before: int, after: int) -> float:
        """Mode A's sphere total once ``colour(v): before -> after``, with
        the pieces of the index's split search and the labels of v's
        neighbours of the new colour."""
        index = self.index
        lab = index.label[v]
        pieces, closed = index.split(v)
        joined = index.neighbour_labels(v, after)
        split_off, rest, merged = self._components_move(v, lab, pieces, closed, joined)
        dim = self.state.geometry.dim
        old = [s for m, s in self.spheres[before].items() if m != lab]
        old.extend(sphere_surface(nu, dim) for nu in split_off)
        if rest is not None:
            old.append(sphere_surface(rest, dim))
        new = [s for m, s in self.spheres[after].items() if m not in joined]
        new.append(sphere_surface(merged, dim))
        sums = [s for c, s in enumerate(self.sphere_sums) if c != before and c != after]
        sums.append(math.fsum(old))
        sums.append(math.fsum(new))
        return math.fsum(sums)

    def _components_move(
        self, v: int, lab: int, pieces: int, closed: List[List[int]], joined: Iterable[int]
    ) -> Tuple[List[int], Optional[int], int]:
        """Volumes of the components a move of ``v`` leaves behind and
        forms: of every closed piece of v's component ``lab`` (which falls
        into ``pieces`` pieces without v), of the remaining piece (None if
        ``v`` was alone) and of v's new component, which joins ``joined``.
        Only volumes from before the move are read."""
        volume = self.state.geometry.volume
        split_off = [sum(map(volume, piece)) for piece in closed]
        rest = self.nu[lab] - volume(v) - sum(split_off) if pieces else None
        return split_off, rest, volume(v) + sum(self.nu[m] for m in joined)

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        changed = self._border_move(v, old, new)
        self.border_total += self._border_total_change(changed)
        if self.mode == "A":
            self._commit_components(v, old, new)
        rank = self.state.rank
        mask = self._conflicts
        for u, b in changed.items():
            self.border_cache[u] = b
            mask = with_bit(mask, rank[u], b > 0)
        self._conflicts = mask

    def _commit_components(self, v: int, old: int, new: int) -> None:
        """Follow the index's record of the move in nu and the spheres of
        colours ``old`` and ``new``."""
        change = self.index.change
        lab = change.label
        split_off, rest, merged = self._components_move(
            v, lab, change.pieces, change.closed, change.joined
        )
        nu = self.nu
        old_spheres = self.spheres[old]
        new_spheres = self.spheres[new]
        # drop the components the move touched, then add those it formed
        del nu[lab], old_spheres[lab]
        for m in change.joined:
            del nu[m], new_spheres[m]
        formed = list(zip(change.fresh, split_off))
        if rest is not None:
            formed.append((lab, rest))
        dim = self.state.geometry.dim
        for m, m_nu in formed:
            nu[m] = m_nu
            old_spheres[m] = sphere_surface(m_nu, dim)
        nu[change.big] = merged
        new_spheres[change.big] = sphere_surface(merged, dim)
        self.sphere_sums[old] = math.fsum(old_spheres.values())
        self.sphere_sums[new] = math.fsum(new_spheres.values())
        self.sphere_total = math.fsum(self.sphere_sums)
