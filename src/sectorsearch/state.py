"""The total colour assignment and the structures induced by it.

Every constraint observes one :class:`ColourState`.  The state owns the
assignment and the commit protocol; the constraints own their incremental
caches and are notified of every committed change.

Vertex sets are also kept as bit masks: bit ``r`` of a mask stands for
``order[r]``, the ``r``-th vertex in sorted order.  The state keeps one
mask and one size per colour class, so the constraints can report their
conflicting vertices as the union of a few masks.

The component searches of the state, of compact mode A and of the
systematic toolbox share :func:`components`, which takes its start
vertices in the caller's order, so the components come out in that order
and float sums over them always add up the same way.
"""

from __future__ import annotations

import collections.abc
import weakref
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
        #: constraints are held weakly, so a model is free of reference
        #: cycles and is freed as soon as it is dropped
        self._observers: List[weakref.ref] = []
        self.order: List[int] = sorted(env.vertices)
        #: position of each real vertex in ``order``; when the ids are
        #: exactly 0..V-1, as on every grid, that is the identity, and a
        #: range stands in for a V-entry dict
        self.rank: Mapping[int, int] = (
            range(len(self.order))
            if not self.order or self.order[-1] == len(self.order) - 1
            else {v: r for r, v in enumerate(self.order)}
        )
        self._colour: Dict[int, int] = {}
        if colours is None:
            self._colour = {v: 1 for v in env.vertices}
        else:
            for v in env.vertices:
                if v not in colours:
                    raise InputError(f"vertex {v} has no colour")
                self._check_colour(colours[v])
                self._colour[v] = colours[v]
        self._rebuild_classes()

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
        """Attach a constraint; it will see every commit via hooks for as
        long as something else keeps it alive."""
        self._observers.append(weakref.ref(observer))

    def _live_observers(self) -> List:
        return [obs for obs in (ref() for ref in self._observers) if obs is not None]

    def assign(self, v: int, c: int) -> None:
        """Commit ``colour(v) := c`` and notify registered constraints."""
        if v == BOTTOM:
            raise InputError("the outside vertex cannot be recoloured")
        old = self.colour(v)
        self._check_colour(c)
        self._colour[v] = c
        if old != c:
            bit = 1 << self.rank[v]
            self.class_mask[old] ^= bit
            self.class_mask[c] |= bit
            self.class_size[old] -= 1
            self.class_size[c] += 1
            for obs in self._live_observers():
                obs.commit_assign(v, old, c)

    def set_all(self, colours: Mapping[int, int]) -> None:
        """Bulk assignment; registered constraints rebuild from scratch."""
        for v in self.env.vertices:
            if v not in colours:
                raise InputError(f"vertex {v} has no colour")
            self._check_colour(colours[v])
        self._colour = {v: colours[v] for v in self.env.vertices}
        self._rebuild_classes()
        for obs in self._live_observers():
            obs.rebuild()

    # ------------------------------------------------------------------
    # vertex masks

    def _rebuild_classes(self) -> None:
        """Refill ``class_mask``/``class_size`` (indexed by colour, entry 0
        unused) in one pass over the vertices."""
        width = (len(self.order) + 7) // 8
        buffers = [bytearray(width) for _ in range(self.n + 1)]
        sizes = [0] * (self.n + 1)
        colour = self._colour
        for r, v in enumerate(self.order):
            c = colour[v]
            buffers[c][r >> 3] |= 1 << (r & 7)
            sizes[c] += 1
        self.class_mask: List[int] = [int.from_bytes(b, "little") for b in buffers]
        self.class_size: List[int] = sizes

    def mask_of(self, vertices: Iterable[int]) -> int:
        """The mask of a vertex set, built in one linear pass."""
        buffer = bytearray((len(self.order) + 7) // 8)
        rank = self.rank
        for v in vertices:
            r = rank[v]
            buffer[r >> 3] |= 1 << (r & 7)
        return int.from_bytes(buffer, "little")

    def classes_mask(self, colours: Iterable[int]) -> int:
        """The union of the given colours' classes."""
        mask = 0
        class_mask = self.class_mask
        for c in colours:
            mask |= class_mask[c]
        return mask

    def unused_colours(self) -> List[int]:
        """The colours no vertex carries, in increasing order."""
        size = self.class_size
        return [c for c in range(1, self.n + 1) if not size[c]]

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
        """All maximal same-coloured components with their attributes, in
        the order of their smallest vertex."""
        base = self.env.base
        colour = self._colour
        classes: Dict[int, Set[int]] = {}
        for v in self.order:
            classes.setdefault(colour[v], set()).add(v)
        out: List[Component] = []
        for members in components(base, self.order, lambda s: classes[colour[s]]):
            sigma = sum(self.border_area(u) for u in members)
            nu = sum(base.volume(u) for u in members)
            c = colour[next(iter(members))]
            out.append(Component(c, frozenset(members), sigma, nu))
        return out


def with_bit(mask: int, r: int, on: bool) -> int:
    """``mask`` with bit ``r`` set when ``on``, cleared otherwise."""
    bit = 1 << r
    return mask | bit if on else mask & ~bit


class MaskView(collections.abc.Sequence):
    """The vertices of a mask as a read-only sorted sequence.

    ``view[k]`` is the vertex of the ``k``-th set bit, found by halving
    the mask on its popcount, so a draw through ``rng.choice(view)``
    consumes the same random numbers and picks the same vertex as
    ``rng.choice`` over the sorted vertex list.
    """

    __slots__ = ("_order", "_mask", "_len")

    def __init__(self, order: Sequence[int], mask: int):
        self._order = order
        self._mask = mask
        self._len = mask.bit_count()

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> int:
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("mask view index out of range")
        mask = self._mask
        pos = 0
        width = mask.bit_length()
        while width > 1:
            half = width >> 1
            low = mask & ((1 << half) - 1)
            below = low.bit_count()
            if k < below:
                mask = low
                width = half
            else:
                k -= below
                mask >>= half
                pos += half
                width -= half
        return self._order[pos]


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


def components(
    base: Geometry, starts: Iterable[int], class_of: Callable[[int], Container[int]]
) -> List[Set[int]]:
    """Connected components of ``base`` within vertex classes.

    ``class_of(s)`` is the class of vertex ``s``, a vertex set that holds
    ``s``; the classes partition the vertices reached, and the component
    of ``s`` is its component in the subgraph induced by its class.  Only
    components that contain a start vertex are searched, one breadth-first
    search per start not yet covered, so the components come out in the
    order of their first start vertex.
    """
    adjacent = base.adjacent
    seen: Set[int] = set()
    comps: List[Set[int]] = []
    for start in starts:
        if start in seen:
            continue
        members = class_of(start)
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adjacent(u):
                if w in members and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def class_components(base: Geometry, members: Set[int]) -> List[Set[int]]:
    """Connected components of the subgraph induced by ``members``."""
    return components(base, members, lambda s: members)


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
    chosen = set(seeds)
    remaining = [v for v in vertices if v not in chosen]
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

