"""The total colour assignment and the structures induced by it.

A :class:`ColourState` colours every vertex of a :class:`Geometry` with
one of ``1..n``.  The outside carries no colour: a vertex's border area
with it (``geometry.border_areas``) always counts as border.

Every constraint observes one :class:`ColourState`.  The state owns the
assignment and the commit protocol; the constraints own their incremental
caches and are notified of every committed change.

Vertex sets are also kept as bit masks: bit ``r`` of a mask stands for
``order[r]``, the ``r``-th vertex in sorted order.  The state keeps one
mask and one size per colour class, so the constraints can report their
conflicting vertices as the union of a few masks.

The state also keeps, once a constraint asks for it, one
:class:`ComponentIndex`: a label per vertex naming its same-colour
component, a size per label and a component count per colour.  Every
``assign`` updates it before any constraint hears of the move, at the
cost of the smaller sides of a split or merge, and records what the move
did (:class:`ComponentChange`); ``set_all`` rebuilds it.  Exact
connectedness counts from it and compact mode A keeps its per-component
sums by its labels.

The from-scratch component searches (``connected_components``, the
cache-free checks and the systematic toolbox) share :func:`components`.
"""

from __future__ import annotations

import collections.abc
import itertools
import weakref
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import InputError
from .geometry import Geometry


@dataclass(frozen=True)
class Component:
    """A maximal same-coloured connected vertex set with its attributes."""

    colour: int
    vertices: FrozenSet[int]
    border_area: int  # sigma: total free border area of the member set
    volume: int  # nu: total volume of the member set


class ColourState:
    """Total assignment of colours ``1..n`` over a geometry."""

    def __init__(
        self,
        geometry: Geometry,
        n: int,
        colours: Optional[Mapping[int, int]] = None,
    ):
        if n < 1:
            raise InputError(f"need at least one colour, got n={n}")
        self.geometry = geometry
        self.n = n
        #: constraints are held weakly, so a model is free of reference
        #: cycles and is freed as soon as it is dropped
        self._observers: List[weakref.ref] = []
        self.order: List[int] = sorted(geometry.vertices)
        #: position of each vertex in ``order``; when the ids are
        #: exactly 0..V-1, as on every grid, that is the identity, and a
        #: range stands in for a V-entry dict
        self.rank: Mapping[int, int] = (
            range(len(self.order))
            if not self.order or self.order[-1] == len(self.order) - 1
            else {v: r for r, v in enumerate(self.order)}
        )
        self._colour: Dict[int, int] = {}
        self._index: Optional[ComponentIndex] = None
        if colours is None:
            self._colour = {v: 1 for v in geometry.vertices}
        else:
            for v in geometry.vertices:
                if v not in colours:
                    raise InputError(f"vertex {v} has no colour")
                self._check_colour(colours[v])
                self._colour[v] = colours[v]
        self._rebuild_classes()

    def _check_colour(self, c: int) -> None:
        if not isinstance(c, int) or not 1 <= c <= self.n:
            raise InputError(f"colour {c!r} outside 1..{self.n}")

    def colour(self, v: int) -> int:
        try:
            return self._colour[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def snapshot(self) -> Dict[int, int]:
        return dict(self._colour)

    def colours(self) -> Mapping[int, int]:
        """The assignment as a read-only view, without a copy; it follows
        later ``assign`` calls but not ``set_all``."""
        return MappingProxyType(self._colour)

    def register(self, observer) -> None:
        """Attach a constraint; it will see every commit via hooks for as
        long as something else keeps it alive."""
        self._observers.append(weakref.ref(observer))

    def component_index(self) -> ComponentIndex:
        """The maintained same-colour components, built on the first
        request and kept up to date by every later commit."""
        if self._index is None:
            self._index = ComponentIndex(self.geometry, self._colour, self.n)
        return self._index

    def _live_observers(self) -> List:
        return [obs for obs in (ref() for ref in self._observers) if obs is not None]

    def assign(self, v: int, c: int) -> None:
        """Commit ``colour(v) := c`` and notify registered constraints."""
        old = self.colour(v)
        self._check_colour(c)
        self._colour[v] = c
        if old != c:
            bit = 1 << self.rank[v]
            self.class_mask[old] ^= bit
            self.class_mask[c] |= bit
            self.class_size[old] -= 1
            self.class_size[c] += 1
            if self._index is not None:
                self._index.move(v, old, c)
            for obs in self._live_observers():
                obs.commit_assign(v, old, c)

    def set_all(self, colours: Mapping[int, int]) -> None:
        """Bulk assignment; registered constraints rebuild from scratch."""
        for v in self.geometry.vertices:
            if v not in colours:
                raise InputError(f"vertex {v} has no colour")
            self._check_colour(colours[v])
        self._colour = {v: colours[v] for v in self.geometry.vertices}
        self._rebuild_classes()
        if self._index is not None:
            self._index.rebuild(self._colour)
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
        total = self.geometry.border_areas.get(v, 0)
        for w, area in self.geometry.edge_areas(v).items():
            if self._colour[w] != c:
                total += area
        return total

    def colour_graph_edges(self) -> Set[Tuple[int, int]]:
        """Edges of the geometry whose endpoints share a colour."""
        return {
            (v, w)
            for v, w in self.geometry.edges()
            if self._colour[v] == self._colour[w]
        }

    def connected_components(self) -> List[Component]:
        """All maximal same-coloured components with their attributes, in
        the order of their smallest vertex."""
        geometry = self.geometry
        colour = self._colour
        classes: Dict[int, Set[int]] = {}
        for v in self.order:
            classes.setdefault(colour[v], set()).add(v)
        out: List[Component] = []
        for members in components(geometry, self.order, lambda s: classes[colour[s]]):
            sigma = sum(self.border_area(u) for u in members)
            nu = sum(geometry.volume(u) for u in members)
            c = colour[next(iter(members))]
            out.append(Component(c, frozenset(members), sigma, nu))
        return out


class ComponentCounts:
    """Same-colour components per colour (``count``, colours ``1..n``),
    their ``total`` and their ``excess``: the components beyond the first
    of each colour."""

    def __init__(self, count: Dict[int, int]):
        self.reset(count)

    def reset(self, count: Dict[int, int]) -> None:
        self.count = count
        self.total = sum(count.values())
        self.excess = sum(k - 1 for k in count.values() if k > 1)

    def after(self, a: int, b: int, k_a: int, k_b: int) -> Tuple[int, int]:
        """Total and excess once colours ``a != b`` have ``k_a`` and
        ``k_b`` components."""
        old_a = self.count[a]
        old_b = self.count[b]
        total = self.total + k_a + k_b - old_a - old_b
        excess = (
            self.excess
            + max(k_a - 1, 0)
            + max(k_b - 1, 0)
            - max(old_a - 1, 0)
            - max(old_b - 1, 0)
        )
        return total, excess

    def recount(self, a: int, b: int, k_a: int, k_b: int) -> None:
        """Give colours ``a != b`` ``k_a`` and ``k_b`` components."""
        self.total, self.excess = self.after(a, b, k_a, k_b)
        self.count[a] = k_a
        self.count[b] = k_b


class ComponentChange(NamedTuple):
    """What one committed move did to the components."""

    #: the moved vertex's component before the move
    label: int
    #: pieces that component fell into without the vertex, 0 if it was
    #: alone; ``label`` stays with the last piece
    pieces: int
    #: the vertices of every other piece, as :meth:`ComponentIndex.split`
    #: found them
    closed: List[List[int]]
    #: the fresh labels of those pieces
    fresh: List[int]
    #: the vertex's component after the move
    big: int
    #: the components of the new colour the vertex joined, relabelled into
    #: ``big``, which is one of them unless there are none and it is fresh
    joined: List[int]


class ComponentIndex(ComponentCounts):
    """Same-colour components kept up to date under single-vertex moves.

    Every vertex carries the ``label`` of its component and every label
    its ``size``.  A move of ``v`` joins as many components of the new
    colour as there are distinct labels among v's neighbours of that
    colour, which costs O(degree); the smaller ones are relabelled into
    the largest (union by size).  Whether v's old component splits is
    decided by :meth:`split`, whose cost is that of the smaller sides,
    not of the colour class; the pieces it closes get fresh labels.
    ``change`` records the last move.
    """

    def __init__(self, geometry: Geometry, colour: Dict[int, int], n: int):
        self.geometry = geometry
        self.n = n
        self.rebuild(colour)

    def rebuild(self, colour: Dict[int, int]) -> None:
        """Label every component of ``colour``, the state's colour map,
        which later commits update in place."""
        self._colour = colour
        adjacent = self.geometry.adjacent
        label: Dict[int, int] = {}
        self.label = label
        self.size: Dict[int, int] = {}
        self._labels = itertools.count(1)
        count = dict.fromkeys(range(1, self.n + 1), 0)
        for start in colour:
            if start in label:
                continue
            c = colour[start]
            lab = next(self._labels)
            label[start] = lab
            stack = [start]
            size = 1
            while stack:
                u = stack.pop()
                for w in adjacent(u):
                    if w not in label and colour[w] == c:
                        label[w] = lab
                        stack.append(w)
                        size += 1
            self.size[lab] = size
            count[c] += 1
        self.reset(count)
        self.change: Optional[ComponentChange] = None

    def neighbour_labels(self, v: int, colour: int) -> Dict[int, int]:
        """Label -> one neighbour of ``v`` carrying it, over v's
        neighbours of ``colour``."""
        label = self.label
        state_colour = self._colour
        return {
            label[w]: w for w in self.geometry.adjacent(v) if state_colour[w] == colour
        }

    def split(self, v: int) -> Tuple[int, List[List[int]]]:
        """Pieces that v's component falls into without ``v``.

        Returns the piece count and the vertices of every piece but the
        one the last open search group holds.  Breadth-first searches
        start at v's neighbours of v's label and advance one vertex each
        per round; searches that meet unite, and the run stops when one
        open group is left (the on-line edge-deletion trick of Even &
        Shiloach, JACM 1981).  Exhausted groups never grow again, so they
        are whole pieces and the count is final.
        """
        label = self.label
        lab = label[v]
        adjacent = self.geometry.adjacent
        starts = [w for w in adjacent(v) if label[w] == lab]
        if len(starts) <= 1:
            return len(starts), []
        k = len(starts)
        parent = list(range(k))
        queues = [deque([s]) for s in starts]
        found = [[s] for s in starts]
        owner = {s: i for i, s in enumerate(starts)}
        owner[v] = -1
        closed: List[List[int]] = []
        open_groups = k
        while True:
            for i in range(k):
                queue = queues[i]
                if parent[i] != i or not queue:
                    continue
                u = queue.popleft()
                for w in adjacent(u):
                    if label[w] != lab:
                        continue
                    o = owner.get(w)
                    if o is None:
                        owner[w] = i
                        queue.append(w)
                        found[i].append(w)
                        continue
                    if o < 0:
                        continue
                    while parent[o] != o:
                        o = parent[o]
                    if o != i:
                        parent[o] = i
                        queue.extend(queues[o])
                        found[i].extend(found[o])
                        open_groups -= 1
                        if open_groups == 1:
                            return len(closed) + 1, closed
                if not queue:
                    closed.append(found[i])
                    open_groups -= 1
                    if open_groups == 1:
                        return len(closed) + 1, closed

    def move(self, v: int, old: int, new: int) -> None:
        """Follow ``colour(v): old -> new``, already in the colour map."""
        label = self.label
        size = self.size
        lab = label[v]
        pieces, closed = self.split(v)
        size[lab] -= 1
        if not pieces:
            del size[lab]
        fresh = []
        for piece in closed:
            f = next(self._labels)
            for u in piece:
                label[u] = f
            size[f] = len(piece)
            size[lab] -= len(piece)
            fresh.append(f)

        touched = self.neighbour_labels(v, new)
        if touched:
            big = max(touched, key=size.__getitem__)
        else:
            big = next(self._labels)
            size[big] = 0
        adjacent = self.geometry.adjacent
        for m, start in touched.items():
            if m == big:
                continue
            label[start] = big
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adjacent(u):
                    if label[w] == m:
                        label[w] = big
                        stack.append(w)
            size[big] += size.pop(m)
        size[big] += 1
        label[v] = big

        count = self.count
        self.recount(old, new, count[old] - 1 + pieces, count[new] + 1 - len(touched))
        self.change = ComponentChange(lab, pieces, closed, fresh, big, list(touched))


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
    geometry: Geometry, starts: Iterable[int], class_of: Callable[[int], Container[int]]
) -> List[Set[int]]:
    """Connected components of ``geometry`` within vertex classes.

    ``class_of(s)`` is the class of vertex ``s``, a vertex set that holds
    ``s``; the classes partition the vertices reached, and the component
    of ``s`` is its component in the subgraph induced by its class.  Only
    components that contain a start vertex are searched, one breadth-first
    search per start not yet covered, so the components come out in the
    order of their first start vertex.
    """
    adjacent = geometry.adjacent
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


def class_components(geometry: Geometry, members: Set[int]) -> List[Set[int]]:
    """Connected components of the subgraph induced by ``members``."""
    return components(geometry, members, lambda s: members)


def grow_regions(geometry: Geometry, k: int, rng) -> Dict[int, int]:
    """Partition the vertices into ``k`` connected regions, colours 1..k.

    Multi-source BFS from random seeds, growing regions one vertex per
    round so sizes stay roughly even.  Raises when the geometry cannot be
    covered by ``k`` connected regions.
    """
    vertices = sorted(geometry.vertices)
    if not 1 <= k <= len(vertices):
        raise InputError(f"cannot grow {k} regions over {len(vertices)} vertices")
    graph_comps = class_components(geometry, set(vertices))
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
                for w in sorted(geometry.adjacent(u)):
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

