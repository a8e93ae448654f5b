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
``order[r]``, the ``r``-th vertex in sorted order, and the size of a
set is its mask's popcount.  The state keeps one mask per colour class,
so the constraints can report their conflicting vertices as the union
of a few masks.  ``set_all`` (and the constructor) reads and checks the
colouring with whole-sequence passes (the colours in vertex order, their
types, their least and greatest) and reads each used colour's class
mask from a string of one byte per vertex, so no Python code runs per
vertex; a bad colour raises, naming its vertex, before any of the state
changes.

The edges between differently coloured vertices come from the class
masks too (:meth:`ColourState.border_edges`): the geometry groups its
edges by rank offset ``d`` and facet area into masks of their lower ends
(:meth:`Geometry.edge_masks`), and an edge of offset ``d`` joins two
vertices of one class ``M`` exactly when its bit is set in
``M & (M >> d)``.  Compact's rebuild and the search's empty-pool
fallback (``border_mask``) read them without visiting a neighbour.

The state also keeps, once a constraint asks for it, one
:class:`ComponentIndex`, the one record of the components: a label per
vertex naming its same-colour component, and per colour the mask of
each of its components under its label, so a component's size is a
popcount and a colour's component count the number of its masks.  Every
``assign`` updates it before any constraint hears of the move, at the
cost of the smaller sides of a split or merge.  Whether a move splits
its vertex's component is first decided from the neighbours of the
vertex and of its same-component neighbours alone: those that are
adjacent or share a neighbour in the component lie in one piece, and
when they all do there is no search.  Otherwise one breadth-first loop
runs the groups of them in turn, whatever their number.  Both stages
unite groups by one rule: a group takes another over by appending the
other's vertex list to its own.

The state creates its colour map once: ``set_all`` writes into it, so a
``colours()`` view and the index, which reads the same map, follow every
colouring.  ``set_all`` rebuilds the index, labelling each vertex by its
colour and minting fresh labels above ``n``.  :func:`grow_regions`, as a
restart calls it, returns a :class:`Regions` colouring, whose used
colours are one component each on the geometry it was grown on, so on a
state over that geometry those labels stay, with no search.  So they do
when one colour covers a connected geometry, as it does in the model
``Instance.build`` makes, so set-up floods nothing on a grid, which is
connected by construction.  Any other colouring's components are
flooded to fresh labels, as a move merges components.  The index keeps
nothing derived from its labels and masks: exact connectedness counts
each colour's masks and works out its own conflicts from them, and
compact mode A sums its components' volumes over the same masks.

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
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import InputError
from .geometry import Geometry, class_components, components, mask_of


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
        #: position of each vertex in ``order``, the geometry's table
        self.rank: Mapping[int, int] = geometry.rank()
        #: the mask of every vertex, the union of all the classes
        self.everyone: int = (1 << len(self.order)) - 1
        self._index: Optional[ComponentIndex] = None
        #: the one colour map, in the order of ``geometry.vertices``, which
        #: the component index floods in; ``set_all`` writes into it
        self._colour: Dict[int, int] = dict.fromkeys(geometry.vertices, 1)
        if colours is not None:
            self._take(colours)
            return
        # every vertex coloured 1: one class of all, nothing to check
        self.class_mask: List[int] = [0] * (n + 1)
        self.class_mask[1] = self.everyone

    def _check_colour(self, v: int, c: int) -> None:
        if not isinstance(c, int) or not 1 <= c <= self.n:
            raise InputError(f"vertex {v}: colour {c!r} outside 1..{self.n}")

    def _take(self, colours: Mapping[int, int]) -> None:
        """Write ``colours`` into the colour map, with its ``class_mask``
        (indexed by colour, entry 0 unused).

        Nothing changes unless every vertex carries a colour in 1..n.
        Checking and writing the colours are whole-sequence passes, and
        the class masks are read from a string of one byte per vertex;
        only a bad colouring is walked vertex by vertex, to name the first
        bad vertex.
        """
        n = self.n
        vertices = self.geometry.vertices
        # a missing colour reads None; a float equal to a colour would hide
        # in a set of the colours, so the types are checked at every vertex,
        # the range over the set
        values = list(map(colours.get, vertices))
        used = set(values) if set(map(type, values)) <= {int} else None
        if used is None or used and not (1 <= min(used) and max(used) <= n):
            # raises, unless every colour is an int subclass in range
            for v, c in zip(vertices, values):
                if v not in colours:
                    raise InputError(f"vertex {v} has no colour")
                self._check_colour(v, c)
            used = set(values)
        self._colour.update(zip(vertices, values))
        ranked = list(map(self._colour.__getitem__, reversed(self.order)))
        class_mask = [0] * (n + 1)
        # a byte per vertex codes its colour among up to 255 at a time,
        # and 255 stands for the others
        used = list(used)
        for start in range(0, len(used), 255):
            block = used[start:start + 255]
            code = {c: i for i, c in enumerate(block)}
            digits = bytes(map(code.get, ranked, itertools.repeat(255)))
            table = bytearray(b"0" * 256)
            for i, c in enumerate(block):
                table[i] = 49  # ord("1")
                class_mask[c] = int(digits.translate(table), 2)
                table[i] = 48  # ord("0")
        self.class_mask = class_mask

    def colour(self, v: int) -> int:
        try:
            return self._colour[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def snapshot(self) -> Dict[int, int]:
        return dict(self._colour)

    def colours(self) -> Mapping[int, int]:
        """The assignment as a read-only view, without a copy; it follows
        later ``assign`` and ``set_all`` calls."""
        return MappingProxyType(self._colour)

    def component_index(self) -> ComponentIndex:
        """The maintained same-colour components, built on the first
        request and kept up to date by every later commit."""
        if self._index is None:
            self._index = ComponentIndex(self.geometry, self._colour, self.n, self.class_mask)
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
            if self._index is not None:
                self._index.move(v, old, c)

    def set_all(self, colours: Mapping[int, int]) -> None:
        """Bulk assignment; like :meth:`assign`, it reaches no constraint.

        A :class:`Regions` colouring grown on this state's geometry has
        classes that are connected or empty, so the component index then
        takes one component per used colour, labelled by the colour and
        masked by its class mask, instead of searching.
        """
        self._take(colours)
        if self._index is not None:
            grown_here = isinstance(colours, Regions) and colours.geometry is self.geometry
            self._index.rebuild(self.class_mask, grown_here)

    # ------------------------------------------------------------------
    # vertex masks

    def mask_of(self, vertices: Iterable[int]) -> int:
        """The mask of a vertex set, built in one linear pass."""
        return mask_of(self.rank, vertices)

    def border_edges(self) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]], int]:
        """The edges between differently coloured vertices, from the
        geometry's :meth:`~Geometry.edge_masks`: per dense group
        ``(d, a, lower)``, where bit ``r`` of ``lower`` is the edge
        ``(order[r], order[r + d])`` of area ``a``; every other such edge
        as ``(v, w, a)``; and the mask of their ends.

        Two ends ``d`` ranks apart share a colour exactly when some class
        mask ``M`` has both bits, that is bit ``r`` of ``M & (M >> d)``, so
        a dense group costs a few operations per used colour and reads no
        neighbour.
        """
        edge_masks = self.geometry.edge_masks()
        masks = [m for m in self.class_mask if m]
        dense = []
        for d, groups in edge_masks.dense:
            same = 0
            for m in masks:
                same |= m & (m >> d)
            for a, edges in groups:
                lower = edges & ~same
                if lower:
                    dense.append((d, a, lower))
        colour = self._colour
        sparse = [e for e in edge_masks.sparse if colour[e[0]] != colour[e[1]]]
        ends = self.mask_of(itertools.chain.from_iterable(e[:2] for e in sparse))
        for d, _, lower in dense:
            ends |= lower | lower << d
        return dense, sparse, ends

    def border_mask(self) -> int:
        """The mask of the vertices with a differently coloured neighbour."""
        return self.border_edges()[2]

    def classes_mask(self, colours: Iterable[int]) -> int:
        """The union of the given colours' classes."""
        mask = 0
        class_mask = self.class_mask
        for c in colours:
            mask |= class_mask[c]
        return mask

    def unused_colours(self) -> List[int]:
        """The colours no vertex carries, in increasing order."""
        class_mask = self.class_mask
        return [c for c in range(1, self.n + 1) if not class_mask[c]]

    # ------------------------------------------------------------------
    # induced structures

    def border_area(self, v: int) -> int:
        """Total area of facets separating ``v`` from differently coloured
        neighbours, the outside included."""
        c = self.colour(v)
        total = self.geometry.border_areas.get(v, 0)
        for w, area in zip(self.geometry.adjacency()[v], self.geometry.facet_areas()[v]):
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


class ComponentIndex:
    """Same-colour components kept up to date under single-vertex moves.

    Every vertex carries the ``label`` of its component, and every colour
    keeps label -> mask for each of its components (``_parts``, handed out
    by :meth:`component_masks`): a component's size is the popcount of its
    mask and a colour's count the number of its masks.  A move of ``v``
    joins as many components of the new colour as there are distinct
    labels among v's neighbours of that colour, which costs O(degree); the
    smaller ones are relabelled into the largest (union by size) and their
    masks ORed into its mask.  Whether v's old component splits is decided
    by :meth:`split`: v's neighbours in the component that are linked
    through a common neighbour there need no search, which settles most
    moves after O(degree^2) reads, and otherwise one loop runs an
    interleaved breadth-first search per group of linked neighbours, in
    which a group that meets another takes it over; it costs the smaller
    sides, not the colour class, plus at most one more pass over a group
    per take-over.  The pieces a split closes get fresh labels, and their
    masks come from the vertex lists the split search found, so keeping
    the masks reads no neighbour.

    A split reads only labels, which change only on ``move`` and
    ``rebuild``, so :meth:`split` keeps each result until the next of
    them: the commit of a probed move, and a second constraint probing
    the same vertex, reuse the probe's search.  :meth:`forget_splits`
    drops the kept results.

    The index is the one record of the components and keeps nothing
    derived from it: every reader works out what it needs from its labels
    and masks, as exact connectedness counts each colour's masks and
    compact mode A sums their volumes.
    """

    def __init__(self, geometry: Geometry, colour: Dict[int, int], n: int,
                 class_mask: Sequence[int]):
        self.geometry = geometry
        self.n = n
        #: the state's colour map, which commits and ``set_all`` update in place
        self._colour = colour
        self._rank = geometry.rank()
        self.rebuild(class_mask)

    def rebuild(self, class_mask: Sequence[int], regions: bool = False) -> None:
        """Label and mask every component of the colour map, whose class
        masks (indexed by colour) are ``class_mask``.

        Each vertex is labelled by its colour and fresh labels start
        above n.  With ``regions``, every class is taken to be connected
        or empty, so those labels stay and each class mask is its one
        component's mask, with no search.  So they do when one colour
        covers a geometry of one component, as on the model a grid
        instance builds, whose every vertex is coloured 1; a grid knows
        it is connected without a search.  Otherwise each vertex still
        carrying a colour label floods its component to a fresh label; a
        colour with one component takes its class mask, and only the
        components of the other colours are masked from their vertices.
        """
        n = self.n
        if not regions and class_mask.count(0) == n:
            # one class of all: connected exactly when the geometry is
            regions = len(self.geometry.components()) == 1
        # drop the old labels first, so they never coexist with the new
        self.label: Dict[int, int] = {}
        self.label.update(self._colour)
        self._splits: Dict[int, Tuple[int, List[List[int]]]] = {}
        self._labels = itertools.count(n + 1)
        if regions:
            parts = {c: {c: class_mask[c]} if class_mask[c] else {} for c in range(1, n + 1)}
        else:
            found: Dict[int, List[Tuple[int, List[int]]]] = {c: [] for c in range(1, n + 1)}
            for start, c in self.label.items():
                if c <= n:
                    lab = next(self._labels)
                    found[c].append((lab, self._flood(start, c, lab)))
            rank = self._rank
            parts = {
                c: {lab: mask_of(rank, vs) for lab, vs in comps} if len(comps) > 1
                else {lab: class_mask[c] for lab, _ in comps}
                for c, comps in found.items()
            }
        #: per colour 1..n, label -> the mask of each of its components
        self._parts: Dict[int, Dict[int, int]] = parts

    def _flood(self, start: int, old: int, new: int) -> List[int]:
        """Relabel ``start`` and every vertex it reaches through vertices
        labelled ``old`` to ``new``; returns the relabelled vertices."""
        label = self.label
        adjacent = self.geometry.adjacent
        label[start] = new
        stack = [start]
        members = [start]
        while stack:
            u = stack.pop()
            for w in adjacent(u):
                if label[w] == old:
                    label[w] = new
                    stack.append(w)
                    members.append(w)
        return members

    def component_masks(self, c: int) -> Mapping[int, int]:
        """Label -> mask of each component of colour ``c``, the index's
        own and only to be read."""
        return self._parts[c]

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
                    other = adj[t]
                    for c in near:
                        if c != v and c in other and label[c] == lab:
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
        rank = self._rank
        bit = 1 << rank[v]
        lab = label[v]
        pieces, closed = self.split(v)
        self.forget_splits()
        olds = self._parts[old]
        rest = olds.pop(lab) ^ bit
        for piece in closed:
            f = next(self._labels)
            for u in piece:
                label[u] = f
            olds[f] = part = mask_of(rank, piece)
            rest ^= part
        if pieces:
            olds[lab] = rest

        news = self._parts[new]
        touched = self.neighbour_labels(v, new)
        if len(touched) > 1:
            # union by size
            big = max(touched, key=lambda m: news[m].bit_count())
        elif touched:
            (big,) = touched
        else:
            big = next(self._labels)
            news[big] = 0
        merged = bit
        for m, start in touched.items():
            if m != big:
                self._flood(start, m, big)
                merged |= news.pop(m)
        news[big] |= merged
        label[v] = big


def _take_over(found: List[List[int]], owner: Dict[int, int], keep: int, gone: int) -> None:
    """Group ``keep`` of a split search takes group ``gone`` over."""
    taken = found[gone]
    for u in taken:
        owner[u] = keep
    found[keep] += taken
    found[gone] = []


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, in increasing order: one
    search of its binary digits per set bit."""
    digits = format(mask, "b")[::-1]
    r = digits.find("1")
    while r >= 0:
        yield r
        r = digits.find("1", r + 1)


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


#: the key :func:`grow_regions` mints a :class:`Regions` with
_GROWN = object()


class Regions(dict):
    """A colouring whose every colour class is connected or empty on
    ``geometry``, as :func:`grow_regions` returns it; ``set_all`` on a
    state over that same geometry labels its components by their colours,
    with no search.

    Nothing checks that promise, so only :func:`grow_regions` can make
    one, and once made it cannot change: building one elsewhere, or
    writing to one, raises a ``TypeError``.  The promise holds only on the
    geometry the regions were grown on (another geometry over the same
    vertices has other neighbours), so a state over any other geometry
    floods it as an ordinary colouring.  A ``dict`` of it is an ordinary
    colouring.
    """

    def __init__(self, colours: Mapping[int, int], geometry: Geometry, _key: object = None):
        if _key is not _GROWN:
            raise TypeError("only grow_regions makes a Regions colouring")
        super().__init__(colours)
        #: the geometry every class is connected on
        self.geometry = geometry

    def _frozen(self, *args, **kwargs):
        raise TypeError("a Regions colouring cannot be changed")

    __setitem__ = __delitem__ = __ior__ = _frozen
    clear = pop = popitem = setdefault = update = _frozen


def grow_regions(geometry: Geometry, k: int, rng) -> Regions:
    """Partition the vertices into ``k`` connected regions, colours 1..k.

    Multi-source BFS from random seeds, one per geometry component first,
    growing regions one vertex per round so sizes stay roughly even.
    Each round a region claims the first unclaimed neighbour, in
    increasing order, of the oldest vertex it holds that has one.  So a
    region reads one stream, the rows of ``geometry.adjacency()``
    of its vertices in the order it claimed them, through one resumable
    head: a neighbour once found claimed stays claimed, so each round
    resumes where the last claim stopped.  Each region is connected by
    construction, so the colouring is a :class:`Regions`.  Raises when the
    geometry cannot be covered by ``k`` connected regions.
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

    adjacency = geometry.adjacency()
    colour: Dict[int, int] = {s: i + 1 for i, s in enumerate(seeds)}
    # a list iterator sees what is appended to its list until it runs out,
    # and a region's stream runs out only once the region can claim nothing
    streams = [list(adjacency[s]) for s in seeds]
    heads = [iter(stream) for stream in streams]
    while len(colour) < len(vertices):
        claimed = len(colour)
        for c, (stream, head) in enumerate(zip(streams, heads), 1):
            for w in head:
                if w not in colour:
                    colour[w] = c
                    stream.extend(adjacency[w])
                    break
        if len(colour) == claimed:
            raise InputError("region growing could not reach every vertex")
    # claimed into a plain dict, which the loop reads faster, and copied once
    return Regions(colour, geometry, _GROWN)
