"""The total colour assignment and the structures induced by it.

Every constraint observes one :class:`ColourState`.  The state owns the
assignment and the commit protocol; the constraints own their incremental
caches and are notified of every committed change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import InputError
from .geometry import BOTTOM, EnvelopedGeometry, Geometry

#: colour reserved for the outside vertex, never available to real vertices
BOTTOM_COLOUR = 0


@dataclass(frozen=True)
class Component:
    """A maximal same-coloured connected vertex set with its attributes."""

    colour: int
    vertices: FrozenSet[int]
    border_area: int  # sigma: total free border area of the member set
    volume: int  # nu: total volume of the member set


class ColourState:
    """Total assignment of colours ``1..n`` over an enveloped geometry."""

    def __init__(
        self,
        env: EnvelopedGeometry,
        n: int,
        colours: Optional[Mapping[int, int]] = None,
    ):
        if n < 1:
            raise InputError(f"need at least one colour, got n={n}")
        self.env = env
        self.n = n
        self.revision = 0
        self._observers: List = []
        self._colour: Dict[int, int] = {}
        if colours is None:
            self._colour = {v: 1 for v in env.vertices}
        else:
            for v in env.vertices:
                if v not in colours:
                    raise InputError(f"vertex {v} has no colour")
                self._check_colour(colours[v])
                self._colour[v] = colours[v]

    def _check_colour(self, c: int) -> None:
        if not isinstance(c, int) or not 1 <= c <= self.n:
            raise InputError(f"colour {c!r} outside 1..{self.n}")

    def colour(self, v: int) -> int:
        if v == BOTTOM:
            return BOTTOM_COLOUR
        try:
            return self._colour[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def snapshot(self) -> Dict[int, int]:
        return dict(self._colour)

    def register(self, observer) -> None:
        """Attach a constraint; it will see every commit via hooks."""
        self._observers.append(observer)

    def assign(self, v: int, c: int) -> None:
        """Commit ``colour(v) := c`` and notify registered constraints."""
        if v == BOTTOM:
            raise InputError("the outside vertex cannot be recoloured")
        old = self.colour(v)
        self._check_colour(c)
        self._colour[v] = c
        self.revision += 1
        if old != c:
            for obs in self._observers:
                obs.commit_assign(v, old, c)

    def set_all(self, colours: Mapping[int, int]) -> None:
        """Bulk assignment; registered constraints rebuild from scratch."""
        for v in self.env.vertices:
            if v not in colours:
                raise InputError(f"vertex {v} has no colour")
            self._check_colour(colours[v])
        self._colour = {v: colours[v] for v in self.env.vertices}
        self.revision += 1
        for obs in self._observers:
            obs.rebuild()

    # ------------------------------------------------------------------
    # induced structures

    def border_area(self, v: int) -> int:
        """Total area of facets separating ``v`` from differently coloured
        neighbours, the outside included."""
        c = self.colour(v)
        total = 0
        for w in self.env.adjacent(v):
            if self.colour(w) != c:
                total += self.env.edge_area(v, w)
        return total

    def colour_graph_edges(self) -> Set[Tuple[int, int]]:
        """Edges of the base graph whose endpoints share a colour."""
        return {
            (v, w)
            for v, w in self.env.base.edges()
            if self._colour[v] == self._colour[w]
        }

    def connected_components(self) -> List[Component]:
        """All maximal same-coloured components with their attributes."""
        base = self.env.base
        seen: Set[int] = set()
        out: List[Component] = []
        for start in sorted(self.env.vertices):
            if start in seen:
                continue
            c = self._colour[start]
            members = {start}
            queue = deque([start])
            seen.add(start)
            while queue:
                u = queue.popleft()
                for w in base.adjacent(u):
                    if w not in seen and self._colour[w] == c:
                        seen.add(w)
                        members.add(w)
                        queue.append(w)
            sigma = sum(self.border_area(u) for u in members)
            nu = sum(base.volume(u) for u in members)
            out.append(Component(c, frozenset(members), sigma, nu))
        return out


def stretches(seq: Sequence) -> List[Tuple[int, int]]:
    """Maximal equal-value index spans of ``seq``, in order.

    The scan treats the sequence as bounded by sentinels distinct from
    every value, so the first and last runs close properly.
    """
    spans: List[Tuple[int, int]] = []
    start = 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or seq[i] != seq[start]:
            spans.append((start, i - 1))
            start = i
    return spans


def class_components(base: Geometry, members: Set[int]) -> List[Set[int]]:
    """Connected components of the subgraph induced by ``members``."""
    seen: Set[int] = set()
    comps: List[Set[int]] = []
    for start in members:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in base.adjacent(u):
                if w in members and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def grow_regions(env: EnvelopedGeometry, k: int, rng) -> Dict[int, int]:
    """Partition the vertices into ``k`` connected regions, colours 1..k.

    Multi-source BFS from random seeds, growing regions one vertex per
    round so sizes stay roughly even.  Raises when the geometry cannot be
    covered by ``k`` connected regions.
    """
    base = env.base
    vertices = sorted(env.vertices)
    if not 1 <= k <= len(vertices):
        raise InputError(f"cannot grow {k} regions over {len(vertices)} vertices")
    graph_comps = class_components(base, set(vertices))
    if len(graph_comps) > k:
        raise InputError(
            f"geometry has {len(graph_comps)} components, more than {k} regions"
        )
    seeds = []
    for comp in sorted(graph_comps, key=min):
        seeds.append(rng.choice(sorted(comp)))
    remaining = [v for v in vertices if v not in set(seeds)]
    seeds.extend(rng.sample(remaining, k - len(seeds)))

    colour: Dict[int, int] = {s: i + 1 for i, s in enumerate(seeds)}
    queues = [deque([s]) for s in seeds]
    while len(colour) < len(vertices):
        progress = False
        for i, queue in enumerate(queues):
            claimed = False
            while queue and not claimed:
                u = queue[0]
                for w in sorted(base.adjacent(u)):
                    if w not in colour:
                        colour[w] = i + 1
                        queue.append(w)
                        claimed = True
                        progress = True
                        break
                else:
                    queue.popleft()
        if not progress:
            raise InputError("region growing could not reach every vertex")
    return colour

