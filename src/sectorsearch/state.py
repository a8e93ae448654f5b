"""The total colour assignment and the structures induced by it.

A :class:`ColourState` colours every vertex of a :class:`Geometry` with
one of ``1..n``.  The outside carries no colour: a vertex's border area
with it (``geometry.border_areas``) always counts as border.

Every constraint reads one :class:`ColourState`, which holds no
constraint: it owns the assignment and what the assignment induces, and
the constraints own their incremental caches.  The model
(:class:`~sectorsearch.engine.Model`) routes each committed change to the
constraints it reaches and rebuilds them after a bulk assignment, so a
model's state is recoloured through the model.

Vertex sets are also kept as bit masks: bit ``r`` of a mask stands for
``order[r]``, the ``r``-th vertex in sorted order.  The state keeps one
mask and one size per colour class, so the constraints can report their
conflicting vertices as the union of a few masks.  ``set_all`` (and the
constructor) makes one pass over the vertices that checks each colour,
copies it and fills the class masks and sizes; a bad colour raises,
naming its vertex, before any of the state changes.

The state also keeps, once a constraint asks for it, one
:class:`ComponentIndex`: a label per vertex naming its same-colour
component, a size per label and a component count per colour.  Every
``assign`` updates it before any constraint hears of the move, at the
cost of the smaller sides of a split or merge, and records what the move
did (:class:`ComponentChange`).  Whether a move splits its vertex's
component is first decided from the neighbours of the vertex and of its
same-component neighbours alone: those that are adjacent or share a
neighbour in the component lie in one piece, and when they all do there
is no search.  Otherwise one breadth-first loop runs the groups of them
in turn, whatever their number.  Both stages unite groups by one rule:
a group takes another over by appending the other's vertex list to its
own.

``set_all`` rebuilds the index, labelling each vertex by its colour and
minting fresh labels above ``n``.  A restart passes ``set_all(...,
regions=True)`` with a :func:`grow_regions` colouring, whose used
colours are one component each, so those labels stay, with no search;
any other colouring's components are flooded to fresh labels, as a move
merges components.  Exact connectedness counts from the index and
compact mode A keeps its per-component sums by its labels.

The from-scratch component searches (``connected_components``, the
cache-free checks and the systematic toolbox) share :func:`components`,
which lives in :mod:`.geometry` beside the components of the geometry
itself and is exported from here as well.
"""

from __future__ import annotations

import collections.abc
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
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
from .geometry import Geometry, class_components, components


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
        self.order: List[int] = list(geometry.order())
        #: position of each vertex in ``order``; when the ids are
        #: exactly 0..V-1, as on every grid, that is the identity, and a
        #: range stands in for a V-entry dict
        self.rank: Mapping[int, int] = (
            range(len(self.order))
            if not self.order or self.order[-1] == len(self.order) - 1
            else {v: r for r, v in enumerate(self.order)}
        )
        self._index: Optional[ComponentIndex] = None
        self._take(dict.fromkeys(geometry.vertices, 1) if colours is None else colours)

    def _check_colour(self, v: int, c: int) -> None:
        if not isinstance(c, int) or not 1 <= c <= self.n:
            raise InputError(f"vertex {v}: colour {c!r} outside 1..{self.n}")

    def _take(self, colours: Mapping[int, int]) -> None:
        """Make ``colours`` the assignment, with its ``class_mask`` and
        ``class_size`` (indexed by colour, entry 0 unused).

        One pass over the geometry's vertices, in their order, checks
        each colour, copies it and sets its class bit; nothing changes
        unless every vertex carries a colour in 1..n.
        """
        n = self.n
        rank = self.rank
        width = (len(self.order) + 7) // 8
        buffers = [bytearray(width) for _ in range(n + 1)]
        out: Dict[int, int] = {}
        for v in self.geometry.vertices:
            try:
                c = colours[v]
            except KeyError:
                raise InputError(f"vertex {v} has no colour") from None
            if type(c) is not int or not 1 <= c <= n:
                self._check_colour(v, c)  # raises unless an int subclass in range
            out[v] = c
            r = rank[v]
            buffers[c][r >> 3] |= 1 << (r & 7)
        self._colour: Dict[int, int] = out
        self.class_mask: List[int] = [int.from_bytes(b, "little") for b in buffers]
        self.class_size: List[int] = [mask.bit_count() for mask in self.class_mask]

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

    def component_index(self) -> ComponentIndex:
        """The maintained same-colour components, built on the first
        request and kept up to date by every later commit."""
        if self._index is None:
            self._index = ComponentIndex(self.geometry, self._colour, self.n)
        return self._index

    def assign(self, v: int, c: int) -> None:
        """Set ``colour(v) := c``, its class masks and component index.
        Recolouring a model's state directly leaves its constraints behind:
        recolour through ``Model.assign``, ``Model.set_all`` or ``Model.commit``."""
        old = self.colour(v)
        self._check_colour(v, c)
        self._colour[v] = c
        if old != c:
            bit = 1 << self.rank[v]
            self.class_mask[old] ^= bit
            self.class_mask[c] |= bit
            self.class_size[old] -= 1
            self.class_size[c] += 1
            if self._index is not None:
                self._index.move(v, old, c)

    def set_all(self, colours: Mapping[int, int], *, regions: bool = False) -> None:
        """Bulk assignment; like :meth:`assign`, it reaches no constraint.

        ``regions`` says that every colour class of ``colours`` is
        connected or empty, as in a :func:`grow_regions` colouring; the
        component index then takes one component per used colour, labelled
        by the colour, instead of searching.
        """
        self._take(colours)
        if self._index is not None:
            self._index.rebuild(self._colour, self.class_size if regions else None)

    # ------------------------------------------------------------------
    # vertex masks

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
        ``k_b`` components.  The one formula behind a probe's delta and
        :meth:`recount`, so the two cannot drift apart; it runs once per
        exact connected probe, hence conditional expressions, not
        ``max`` calls."""
        count = self.count
        old_a = count[a]
        old_b = count[b]
        total = self.total + k_a + k_b - old_a - old_b
        excess = (
            self.excess
            + (k_a - 1 if k_a > 1 else 0)
            + (k_b - 1 if k_b > 1 else 0)
            - (old_a - 1 if old_a > 1 else 0)
            - (old_b - 1 if old_b > 1 else 0)
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
    decided by :meth:`split`: v's neighbours in the component that are
    linked through a common neighbour there need no search, which settles
    most moves after O(degree^2) reads, and otherwise one loop runs an
    interleaved breadth-first search per group of linked neighbours, in
    which a group that meets another takes it over; it costs the smaller
    sides, not the colour class, plus at most one more pass over a group
    per take-over.  The pieces a split closes get fresh labels.
    ``change`` records the last move.

    A split reads only labels, which change only on ``move`` and
    ``rebuild``, so :meth:`split` keeps each result until the next of
    them: the commit of a probed move, and a second constraint probing
    the same vertex, reuse the probe's search.  :meth:`forget_splits`
    drops the kept results.
    """

    def __init__(self, geometry: Geometry, colour: Dict[int, int], n: int):
        self.geometry = geometry
        self.n = n
        self.rebuild(colour)

    def rebuild(self, colour: Dict[int, int], class_size: Optional[Sequence[int]] = None) -> None:
        """Label every component of ``colour``, the state's colour map,
        which later commits update in place.

        Each vertex is labelled by its colour and fresh labels start
        above n.  Given the colouring's ``class_size`` (indexed by
        colour), every class is taken to be connected or empty and those
        labels stay; otherwise each vertex still carrying a colour label
        floods its component to a fresh label.
        """
        self._colour = colour
        # drop the old labels first, so they never coexist with the new
        self.label: Dict[int, int] = {}
        self.label.update(colour)
        self.change: Optional[ComponentChange] = None
        self._splits: Dict[int, Tuple[int, List[List[int]]]] = {}
        self._labels = itertools.count(self.n + 1)
        if class_size is not None:
            self.size = {c: k for c, k in enumerate(class_size) if c and k}
            self.reset({c: int(class_size[c] > 0) for c in range(1, self.n + 1)})
            return
        self.size = {}
        count = dict.fromkeys(range(1, self.n + 1), 0)
        for start, c in self.label.items():
            if c <= self.n:
                lab = next(self._labels)
                self.size[lab] = self._flood(start, c, lab)
                count[c] += 1
        self.reset(count)

    def _flood(self, start: int, old: int, new: int) -> int:
        """Relabel ``start`` and every vertex it reaches through vertices
        labelled ``old`` to ``new``; returns how many it relabelled."""
        label = self.label
        adjacent = self.geometry.adjacent
        label[start] = new
        stack = [start]
        size = 1
        while stack:
            u = stack.pop()
            for w in adjacent(u):
                if label[w] == old:
                    label[w] = new
                    stack.append(w)
                    size += 1
        return size

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
        one the last open search group holds, as found by
        :meth:`_split_search` since the last move or rebuild.
        """
        found = self._splits.get(v)
        if found is None:
            found = self._splits[v] = self._split_search(v)
        return found

    def forget_splits(self) -> None:
        """Drop the results :meth:`split` keeps, so the next split of
        every vertex searches again."""
        self._splits = {}

    def _split_search(self, v: int) -> Tuple[int, List[List[int]]]:
        """The search behind :meth:`split`, in two stages that share one
        take-over rule.

        Groups of vertices are kept as lists, ``found[g]``, with ``owner``
        mapping each listed vertex to its ``g``.  A group takes another
        over by relabelling the other's vertices in ``owner``, appending
        the other's list to its own and leaving the other's list empty.

        First the starts, v's neighbours of v's label, are grouped: two
        starts lie in one piece when they are adjacent or share a
        neighbour of v's label other than v.  The test reads only the
        neighbours of v and of its starts.  Each start joins the group of
        the first earlier start it is linked to, or opens a group of its
        own, and its group takes over any other group it is linked to.
        When one group is left, nothing is searched.

        Then one breadth-first loop runs the groups in turn, each
        expanding one vertex per turn (the on-line edge-deletion trick of
        Even & Shiloach, JACM 1981).  Each group's list is both its queue,
        read from its own head index, and its piece.  A group that meets
        another takes it over, and the loop stops when one open group is
        left.  An empty list is a group taken over, and a spent list is a
        closed piece: it never grows again, so the count is final.  A
        taken-over group's expanded vertices are expanded again by the
        group that took it over, at most once per take-over.
        """
        label = self.label
        lab = label[v]
        adj = self.geometry.adjacency()
        starts = []
        for w in adj[v]:
            if label[w] == lab:
                starts.append(w)
        k = len(starts)
        if k <= 1:
            return k, []
        found: List[List[int]] = [[starts[0]]]
        owner: Dict[int, int] = {starts[0]: 0}
        open_groups = 1
        for i in range(1, k):
            s = starts[i]
            near = adj[s]
            g = -1
            for t in starts[:i]:
                h = owner[t]
                if h == g:
                    continue
                if t not in near:
                    for c in near & adj[t]:
                        if c != v and label[c] == lab:
                            break
                    else:
                        continue
                if g < 0:
                    g = owner[s] = h
                    found[h].append(s)
                    continue
                _take_over(found, owner, g, h)
                open_groups -= 1
            if g < 0:
                owner[s] = len(found)
                found.append([s])
                open_groups += 1

        if open_groups <= 1:
            return 1, []
        owner[v] = -1  # no group's, so every group passes it by
        get = owner.get
        heads = [0] * len(found)
        closed: List[List[int]] = []
        for i in itertools.cycle(range(len(found))):
            piece = found[i]
            h = heads[i]
            try:
                near = adj[piece[h]]
            except IndexError:  # a closed piece, or a group taken over
                continue
            heads[i] = h = h + 1
            for w in near:
                if label[w] == lab:
                    o = get(w)
                    if o is None:
                        owner[w] = i
                        piece.append(w)
                    elif o != i and o >= 0:
                        _take_over(found, owner, i, o)
                        open_groups -= 1
                        if open_groups <= 1:
                            return len(closed) + 1, closed
            if h == len(piece):
                closed.append(piece)
                open_groups -= 1
                if open_groups <= 1:
                    return len(closed) + 1, closed

    def move(self, v: int, old: int, new: int) -> None:
        """Follow ``colour(v): old -> new``, already in the colour map."""
        label = self.label
        size = self.size
        lab = label[v]
        pieces, closed = self.split(v)
        self.forget_splits()
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
        for m, start in touched.items():
            if m != big:
                self._flood(start, m, big)
                size[big] += size.pop(m)
        size[big] += 1
        label[v] = big

        count = self.count
        self.recount(old, new, count[old] - 1 + pieces, count[new] + 1 - len(touched))
        self.change = ComponentChange(lab, pieces, closed, fresh, big, list(touched))


def _take_over(found: List[List[int]], owner: Dict[int, int], keep: int, gone: int) -> None:
    """Group ``keep`` of a split search takes group ``gone`` over."""
    taken = found[gone]
    for u in taken:
        owner[u] = keep
    found[keep] += taken
    found[gone] = []


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


def grow_regions(geometry: Geometry, k: int, rng) -> Dict[int, int]:
    """Partition the vertices into ``k`` connected regions, colours 1..k.

    Multi-source BFS from random seeds, one per geometry component first,
    growing regions one vertex per round so sizes stay roughly even.
    Each round a region claims the first unclaimed neighbour, in
    increasing order, of the oldest vertex it holds that has one.  So a
    region reads one stream, the tuples of ``geometry.ascending_adjacency()``
    of its vertices in the order it claimed them, through one resumable
    head: a neighbour once found claimed stays claimed, so each round
    resumes where the last claim stopped.  Each region is connected by
    construction.  Raises when the geometry cannot be covered by ``k``
    connected regions.
    """
    vertices = geometry.order()
    if not 1 <= k <= len(vertices):
        raise InputError(f"cannot grow {k} regions over {len(vertices)} vertices")
    graph_comps = geometry.components()
    if len(graph_comps) > k:
        raise InputError(
            f"geometry has {len(graph_comps)} components, more than {k} regions"
        )
    seeds = [rng.choice(comp) for comp in graph_comps]
    chosen = set(seeds)
    remaining = [v for v in vertices if v not in chosen]
    seeds.extend(rng.sample(remaining, k - len(seeds)))

    ascending = geometry.ascending_adjacency()
    colour: Dict[int, int] = {s: i + 1 for i, s in enumerate(seeds)}
    # a list iterator sees what is appended to its list until it runs out,
    # and a region's stream runs out only once the region can claim nothing
    streams = [list(ascending[s]) for s in seeds]
    heads = [iter(stream) for stream in streams]
    while len(colour) < len(vertices):
        claimed = len(colour)
        for c, (stream, head) in enumerate(zip(streams, heads), 1):
            for w in head:
                if w not in colour:
                    colour[w] = c
                    stream.extend(ascending[w])
                    break
        if len(colour) == claimed:
            raise InputError("region growing could not reach every vertex")
    return colour
