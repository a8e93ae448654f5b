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

A rebuild reads no neighbour.  It starts every vertex at its area on the
outside, takes the edges between differently coloured vertices from the
state's class masks (:meth:`~sectorsearch.state.ColourState.border_edges`),
one mask of lower ends per rank offset and area, and adds each border
edge's area to both its ends, looping over the set bits alone; the
conflict mask is the union of those masks, each also shifted to its upper
ends, and of the vertices on the outside.  The few edges of an offset
that a mask would not pay for come as a list, read in the same pass.

Mode A keeps per colour the sum of its components' sphere surfaces and
no record of the components of its own: the state's component index is
the one record, and a component's volume is read from its mask
(:meth:`~sectorsearch.state.ComponentIndex.component_masks`).  The
vertex volumes are cut into bit planes once, at construction
(:func:`~sectorsearch.geometry.value_planes`), so a mask's volume is a
few popcounts (:func:`~sectorsearch.geometry.masked_sum`, which the sum
kinds share) and a rebuild runs no Python code per vertex.  A commit,
which the index has already followed, sums the two colours' spheres
again from their masks.  The exact probe lists the same volumes before
the move: the pieces of the index's split search, summed vertex by
vertex, the rest of the moved vertex's component, the new colour's
components it joins with the moved vertex, and every other component of
the two colours from its mask.  The index answers a split without
searching when v's neighbours in the component are linked through common
neighbours there, and otherwise its search costs the smaller sides, so
probes and commits never cost a whole colour class.  Which piece the
search closes is its own choice; the volumes do not depend on it.  The
spheres are summed with :func:`math.fsum` per colour, and so are the
colours' sums; ``fsum`` is correctly rounded whatever the order, so a
probe equals the committed change to the last bit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping

from ..errors import InputError
from ..geometry import masked_sum, value_planes
from ..state import ColourState, set_bits, with_bit
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
        if mode == "A":
            volume = state.geometry._volume
            self._low, self._planes = value_planes(list(map(volume.__getitem__, state.order)))
        self.rebuild()

    def rebuild(self) -> None:
        state = self.state
        geometry = state.geometry
        order = state.order
        # from a set, dict.fromkeys sizes the table once
        border = dict.fromkeys(geometry.vertices, 0)
        border.update(geometry.border_areas)
        dense, sparse, ends = state.border_edges()
        for d, a, lower in dense:
            for r in set_bits(lower):
                border[order[r]] += a
                border[order[r + d]] += a
        for v, w, a in sparse:
            border[v] += a
            border[w] += a
        self.border_cache = border
        # every end of a border edge conflicts, and so does every vertex
        # with a facet on the outside
        self._conflicts = ends | geometry.edge_masks().outside
        g = self._g
        # g(0) = 0 for both weights
        total = sum(map(g, filter(None, border.values())))
        if self.mode == "B":
            self.border_total = total + g(geometry.outside_area())
            self.sphere_total = 0.0  # mode B subtracts no spheres
            return
        self.border_total = total
        self.index = state.component_index()
        #: per colour (entry 0 unused), the spheres of its components
        self.sphere_sums: List[float] = [0.0] * (state.n + 1)
        for c in range(1, state.n + 1):
            self._sum_spheres(c)
        self.sphere_total = math.fsum(self.sphere_sums)

    # measurement -------------------------------------------------------
    def var_violation(self, v: int) -> int:
        return self._f(self.border_cache[v])

    def conflicts(self) -> int:
        return self._conflicts if self.violation() else 0

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
        for w, area in zip(state.geometry.adjacency()[v], state.geometry.facet_areas()[v]):
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
        """Mode A's sphere total once ``colour(v): before -> after``, from
        the pieces of the index's split search, the labels of v's
        neighbours of the new colour and the masks of the components."""
        index = self.index
        volume = self.state.geometry.volume
        mask_volume = self._mask_volume
        lab = index.label[v]
        pieces, closed = index.split(v)
        masks = index.component_masks(before)
        old = [mask_volume(m) for m_lab, m in masks.items() if m_lab != lab]
        rest = mask_volume(masks[lab]) - volume(v)
        for piece in closed:
            nu = sum(map(volume, piece))
            rest -= nu
            old.append(nu)
        if pieces:
            old.append(rest)
        joined = index.neighbour_labels(v, after)
        masks = index.component_masks(after)
        new = [mask_volume(m) for m_lab, m in masks.items() if m_lab not in joined]
        new.append(volume(v) + sum(mask_volume(masks[m_lab]) for m_lab in joined))
        sums = list(self.sphere_sums)
        sums[before] = self._sphere_sum(old)
        sums[after] = self._sphere_sum(new)
        return math.fsum(sums)

    def _mask_volume(self, mask: int) -> int:
        return masked_sum(self._low, self._planes, mask)

    def _sphere_sum(self, volumes: Iterable[int]) -> float:
        dim = self.state.geometry.dim
        return math.fsum(sphere_surface(nu, dim) for nu in volumes)

    def _sum_spheres(self, c: int) -> None:
        """Sum colour ``c``'s spheres from its components' masks."""
        masks = self.index.component_masks(c).values()
        self.sphere_sums[c] = self._sphere_sum(map(self._mask_volume, masks))

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        changed = self._border_move(v, old, new)
        self.border_total += self._border_total_change(changed)
        if self.mode == "A":
            # the index has followed the move already
            self._sum_spheres(old)
            self._sum_spheres(new)
            self.sphere_total = math.fsum(self.sphere_sums)
        rank = self.state.rank
        mask = self._conflicts
        for u, b in changed.items():
            self.border_cache[u] = b
            mask = with_bit(mask, rank[u], b > 0)
        self._conflicts = mask
