"""Compactness of coloured regions, in two variants.

Mode "A" sums, per connected component, the excess of its free border
area over the surface of an equal-volume sphere (circle perimeter in 2D).
Mode "B" drops the component structure and bounds the total border area of
the colouring: every interior facet between differently coloured vertices
counts once, every facet on the geometry boundary counts once.

Mode B is kept in doubled integer units internally (the per-vertex border
sum counts interior facets twice, and boundary facets once from their
vertex and once more from the geometry's outside area), so its
arithmetic is exact.

A move changes the border areas of the moved vertex and of its
neighbours only; one pass over its neighbours yields them, and probes and
commits both start from that pass.  Mode B probes and the mode A fast
probe (the change of the moved vertex's own border area) cost
O(degree).

Mode A keeps an integer border sum sigma and volume nu per component,
keyed by the labels of the state's component index.  One routine
computes the sums of the components a move leaves behind and forms: the
closed pieces of a split, the rest of the old component, and the new
colour's components merged with the moved vertex.  The exact probe feeds
it the pieces of the index's split search and the labels of v's
neighbours; a commit feeds it the index's record of the same move.  So
probes and commits cost the smaller sides of a split, never a whole
colour class.  Per colour, the terms ``sigma - sphere_surface(nu)`` are
summed with :func:`math.fsum`, and so are the colours' sums; ``fsum`` is
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
        volume = geometry._volume
        mode_a = self.mode == "A"
        if mode_a:
            self.index = state.component_index()
            label = self.index.label
            sigma: Dict[int, int] = dict.fromkeys(self.index.size, 0)
            nu: Dict[int, int] = dict.fromkeys(self.index.size, 0)
            owner: Dict[int, int] = {}
        f = self._f
        total2 = 0
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
            # border areas are never negative, so f(b) > 0 iff b > 0
            if b:
                conflicts[r >> 3] |= 1 << (r & 7)
                total2 += f(b)
            if mode_a:
                lab = label[v]
                sigma[lab] += b
                nu[lab] += volume[v]
                owner[lab] = cv
        self.border_cache = border
        self._outside = geometry.outside_area()
        self._conflicts = int.from_bytes(conflicts, "little")
        if not mode_a:
            self._total2 = total2 + f(self._outside)
            return
        self.sigma = sigma
        self.nu = nu
        #: per colour, the term of each of its components' labels
        self.terms: List[Dict[int, float]] = [{} for _ in range(state.n + 1)]
        for lab, c in owner.items():
            self.terms[c][lab] = self._term(sigma[lab], nu[lab])
        self.colour_term: List[float] = [math.fsum(t.values()) for t in self.terms]
        self._total = math.fsum(self.colour_term)

    def _term(self, sigma: int, nu: int) -> float:
        """Sphericity discrepancy of one component: its border area minus
        the surface of the equal-volume sphere."""
        return sigma - sphere_surface(nu, self.state.geometry.dim)

    # measurement -------------------------------------------------------
    def var_violation(self, v: int) -> int:
        return self._f(self.border_cache[v])

    def conflicts(self) -> int:
        return self._conflicts

    def violation(self) -> float:
        if self.mode == "B":
            return max(self._total2 - 2 * self.threshold, 0) / 2.0
        return max(self._total - self.threshold, 0.0)

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
        if self.probe == "fast":
            # cheap approximation: the change of v's own border area
            return changed[v] - self.border_cache[v]
        total = self._total_after(v, before, colour, changed)
        return max(total - self.threshold, 0.0) - self.violation()

    def _total_after(self, v: int, before: int, after: int, changed: Mapping[int, int]) -> float:
        """Mode A's total once ``colour(v): before -> after``, with the
        pieces of the index's split search and the labels of v's
        neighbours of the new colour; ``changed`` is the move's
        :meth:`_border_move`."""
        index = self.index
        lab = index.label[v]
        pieces, closed = index.split(v)
        joined = index.neighbour_labels(v, after)
        split_off, rest, merged = self._components_move(v, lab, pieces, closed, joined, changed)
        old_terms = [t for m, t in self.terms[before].items() if m != lab]
        old_terms.extend(self._term(*comp) for comp in split_off)
        if rest is not None:
            old_terms.append(self._term(*rest))
        new_terms = [t for m, t in self.terms[after].items() if m not in joined]
        new_terms.append(self._term(*merged))
        sums = [t for c, t in enumerate(self.colour_term) if c != before and c != after]
        sums.append(math.fsum(old_terms))
        sums.append(math.fsum(new_terms))
        return math.fsum(sums)

    def _components_move(
        self,
        v: int,
        lab: int,
        pieces: int,
        closed: List[List[int]],
        joined: Iterable[int],
        changed: Mapping[int, int],
    ) -> Tuple[List[Tuple[int, int]], Optional[Tuple[int, int]], Tuple[int, int]]:
        """Border sums and volumes of the components a move of ``v``
        leaves behind and forms.

        Without ``v`` its component ``lab`` falls into ``pieces`` pieces,
        ``closed`` holding the vertices of all of them but one, and ``v``
        joins the components ``joined`` of its new colour.  Returns the
        (sigma, nu) of every closed piece, of the remaining piece (None if
        ``v`` was alone) and of v's new component.  Only the sums and areas
        from before the move are read, so a probe and the commit that
        follows get the same answer.
        """
        sigma = self.sigma
        nu = self.nu
        border = self.border_cache
        volume = self.state.geometry.volume
        rest_sigma = sigma[lab] - border[v]
        rest_nu = nu[lab] - volume(v)
        big_sigma = changed[v]
        big_nu = volume(v)
        for m in joined:
            big_sigma += sigma[m]
            big_nu += nu[m]
        for u, b in changed.items():
            # a changed neighbour of the old colour gains the facet it
            # shares with v as border; one of the new colour loses it
            if u != v:
                if b > border[u]:
                    rest_sigma += b - border[u]
                else:
                    big_sigma += b - border[u]
        split_off = []
        for piece in closed:
            piece_sigma = sum(changed.get(u, border[u]) for u in piece)
            piece_nu = sum(volume(u) for u in piece)
            split_off.append((piece_sigma, piece_nu))
            rest_sigma -= piece_sigma
            rest_nu -= piece_nu
        rest = (rest_sigma, rest_nu) if pieces else None
        return split_off, rest, (big_sigma, big_nu)

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        changed = self._border_move(v, old, new)
        if self.mode == "B":
            self._total2 += self._total2_change(changed)
        else:
            self._commit_components(v, old, new, changed)
        rank = self.state.rank
        mask = self._conflicts
        for u, b in changed.items():
            self.border_cache[u] = b
            mask = with_bit(mask, rank[u], b > 0)
        self._conflicts = mask

    def _commit_components(self, v: int, old: int, new: int, changed: Mapping[int, int]) -> None:
        """Follow the index's record of the move in sigma, nu and the
        terms of colours ``old`` and ``new``; ``border_cache`` still holds
        the areas before the move."""
        change = self.index.change
        lab = change.label
        split_off, rest, merged = self._components_move(
            v, lab, change.pieces, change.closed, change.joined, changed
        )
        sigma = self.sigma
        nu = self.nu
        old_terms = self.terms[old]
        new_terms = self.terms[new]
        # drop the components the move touched, then add those it formed
        del sigma[lab], nu[lab], old_terms[lab]
        for m in change.joined:
            del sigma[m], nu[m], new_terms[m]
        formed = list(zip(change.fresh, split_off))
        if rest is not None:
            formed.append((lab, rest))
        for m, (m_sigma, m_nu) in formed:
            sigma[m] = m_sigma
            nu[m] = m_nu
            old_terms[m] = self._term(m_sigma, m_nu)
        big_sigma, big_nu = merged
        sigma[change.big] = big_sigma
        nu[change.big] = big_nu
        new_terms[change.big] = self._term(big_sigma, big_nu)
        self.colour_term[old] = math.fsum(old_terms.values())
        self.colour_term[new] = math.fsum(new_terms.values())
        self._total = math.fsum(self.colour_term)
