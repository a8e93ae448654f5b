"""Region graphs with shared areas and volumes.

A geometry is a purely combinatorial description of a partitioned space.
Its input is a facet structure: vertices are atomic regions, facets are
the flat boundary elements between two adjacent regions or between a
border region and the outside.  Every facet carries a positive integer
surface area and every vertex a positive integer volume, in
instance-defined units.  Two-dimensional instances are depth-1 cell
complexes whose facet "areas" are side lengths.

Once the facet structure is checked, a geometry keeps per vertex only
what the search reads: its neighbours as an increasing tuple, the areas
of the facets it shares with them as a tuple in the same order, the
total area of its border facets, and its volume.  However the facets
are numbered, the same graph has the same neighbour rows.  A grid
(:func:`grid`) has no facet structure to check: it writes those tables,
and its edge masks, straight from its cells' coordinates.

The paper closes the geometry with an outside vertex adjacent to every
border vertex.  Here the outside is no vertex: a vertex's border area
stands for its facets with the outside, which no colouring can share, so
it always counts as border.

The breadth-first component searches over vertex classes
(:func:`components`, :func:`class_components`) live here too, as a
geometry's own components are one of their results, and so do the
routines over vertex masks: :func:`mask_of`, and the bit planes of
per-vertex values (:func:`value_planes`) with the masked sums read from
them (:func:`masked_sum`), which the sum kinds and compact mode A share.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import and_, rshift, sub
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import InputError


#: per vertex, its neighbours in increasing order, or their facet areas
Rows = Dict[int, Tuple[int, ...]]

#: an offset-and-area group with at least V / DENSE_SHARE edges is kept
#: as one mask: testing it costs a few passes over V bits, about what
#: testing this many edges one by one costs
DENSE_SHARE = 16


class EdgeMasks(NamedTuple):
    """A geometry's edges, grouped by rank offset and facet area, and the
    vertices with facets on the outside, as masks over :meth:`Geometry.order`."""

    #: per offset ``d``, ``(a, mask)`` per area: bit ``r`` of the mask is
    #: the edge ``(order[r], order[r + d])`` of area ``a``
    dense: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
    #: every other edge as ``(v, w, a)``
    sparse: Tuple[Tuple[int, int, int], ...]
    #: the vertices with a border area
    outside: int


class Geometry:
    """Immutable region graph derived from a facet structure.

    Adjacency is not given separately: two vertices are adjacent exactly
    when they share a facet, so symmetry and irreflexivity hold by
    construction, and the one-facet-per-edge invariant is validated here.
    The facets themselves are not kept.  :func:`grid` builds its
    geometries without facets, from the same tables written per cell.

    Each vertex's neighbours are kept once, as an increasing tuple of
    the int objects that key the vertices (:meth:`adjacency`), with the
    areas of the facets it shares with them in a tuple aligned with it
    (:meth:`facet_areas`).  As nothing changes after construction, three
    more tables are computed on the first request and kept, so every
    later call returns the same object: the sorted vertex ``order()``
    with each vertex's ``rank()`` in it, the connected ``components()``,
    and the ``edge_masks()``, the edges grouped by rank offset and area.
    A grid supplies its edge masks and its one component when it is
    built.
    """

    def __init__(
        self,
        facets_of: Mapping[int, Iterable[int]],
        facet_area: Mapping[int, int],
        volume: Mapping[int, int],
        dim: int,
    ):
        if dim not in (2, 3):
            raise InputError(f"dim must be 2 or 3, got {dim}")
        owners: Dict[int, list] = {}
        for v, fs in facets_of.items():
            if not isinstance(v, int) or v < 0:
                raise InputError(f"vertex ids must be non-negative integers, got {v!r}")
            for f in frozenset(fs):
                vs = owners.get(f)
                if vs is None:
                    owners[f] = [v]
                else:
                    vs.append(v)
        edge_areas: Dict[int, Dict[int, int]] = {v: {} for v in facets_of}
        border_areas: Dict[int, int] = {}
        # the first pair found sharing a second facet, reported only after
        # the volumes are checked, as the facet checks come first
        twice: Optional[Tuple[int, int, int]] = None
        for f, vs in owners.items():
            if len(vs) > 2:
                raise InputError(f"facet {f} has {len(vs)} owners, at most 2 allowed")
            if f not in facet_area:
                raise InputError(f"facet {f} has no area")
            a = facet_area[f]
            if not isinstance(a, int) or a <= 0:
                raise InputError(f"facet {f} area must be a positive integer, got {a!r}")
            if len(vs) == 1:
                v = vs[0]
                border_areas[v] = border_areas.get(v, 0) + a
                continue
            v, w = sorted(vs)
            if w in edge_areas[v]:
                twice = twice or (v, w, f)
                continue
            edge_areas[v][w] = a
            edge_areas[w][v] = a
        volumes: Dict[int, int] = {}
        for v in edge_areas:
            if v not in volume:
                raise InputError(f"vertex {v} has no volume")
            w = volume[v]
            if not isinstance(w, int) or w <= 0:
                raise InputError(f"vertex {v} volume must be a positive integer, got {w!r}")
            volumes[v] = w
        if twice is not None:
            v, w, f = twice
            first = next(g for g, vs in owners.items() if g != f and sorted(vs) == [v, w])
            raise InputError(
                f"vertices {v} and {w} share facets {first} and {f}, "
                "exactly one shared facet is allowed"
            )
        adjacency: Rows = {}
        facet_areas: Rows = {}
        rows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}  # one tuple per distinct area row
        for v, ws in edge_areas.items():
            row = adjacency[v] = tuple(sorted(ws))
            areas = tuple(map(ws.__getitem__, row))
            facet_areas[v] = rows.setdefault(areas, areas)
        self._keep(dim, adjacency, facet_areas, border_areas, volumes, None)

    @classmethod
    def _from_tables(cls, *tables) -> "Geometry":
        """A geometry from the tables :meth:`_keep` takes, which its caller
        has built and checked, as :func:`grid` builds them from cells;
        nothing is checked here."""
        geometry = cls.__new__(cls)
        geometry._keep(*tables)
        return geometry

    def _keep(self, dim: int, adjacency: Rows, facet_areas: Rows, border_areas: Dict[int, int],
              volume: Dict[int, int], edge_masks: Optional[EdgeMasks],
              components: Optional[Tuple[Tuple[int, ...], ...]] = None) -> None:
        """The tail both constructors share: the tables and the lazy
        caches, with the edge masks and the components when the caller
        has them."""
        self.dim = dim
        #: the total area of each vertex's facets that no other vertex
        #: shares; only border vertices have an entry
        self.border_areas = border_areas
        self._volume = volume
        self._adj = adjacency
        self._facet_areas = facet_areas
        self._vertices: FrozenSet[int] = frozenset(adjacency)
        self._order: Optional[Tuple[int, ...]] = None
        self._rank: Optional[Mapping[int, int]] = None
        self._edge_masks: Optional[EdgeMasks] = edge_masks
        self._components = components

    @property
    def vertices(self) -> FrozenSet[int]:
        return self._vertices

    def order(self) -> Tuple[int, ...]:
        """The vertices in increasing order, sorted on the first request."""
        if self._order is None:
            self._order = tuple(sorted(self._vertices))
        return self._order

    def rank(self) -> Mapping[int, int]:
        """Each vertex's position in :meth:`order`, a table to read,
        never change.  When the ids are exactly 0..V-1, as on every grid,
        that is the identity, and a range stands in for a V-entry dict."""
        if self._rank is None:
            order = self.order()
            self._rank = (
                range(len(order))
                if not order or order[-1] == len(order) - 1
                else {v: r for r, v in enumerate(order)}
            )
        return self._rank

    def edge_masks(self) -> EdgeMasks:
        """The edges grouped by rank offset ``d`` and facet area ``a``,
        built in one pass on the first request and kept.

        An edge ``(order[r], order[r + d])`` of a group with at least
        V / ``DENSE_SHARE`` edges is bit ``r`` of the group's mask, so a
        test of every edge of the group is a few operations on V-bit
        integers; the edges of the other groups, which on a geometry with
        scattered ids are nearly all of them, stay a list of
        ``(v, w, a)``, as a mask of few bits would cost as much as a dense
        one.
        """
        if self._edge_masks is None:
            rank = self.rank()
            facet_areas = self._facet_areas
            groups: Dict[Tuple[int, int], List[int]] = {}
            for v, ws in self._adj.items():
                r = rank[v]
                for w, a in zip(ws, facet_areas[v]):
                    if w > v:  # so rank[w] > r: each edge once, from its lower end
                        key = (rank[w] - r, a)
                        lower = groups.get(key)
                        if lower is None:
                            groups[key] = [v]
                        else:
                            lower.append(v)
            order = self.order()
            size = len(order)
            dense: Dict[int, List[Tuple[int, int]]] = {}
            sparse: List[Tuple[int, int, int]] = []
            for (d, a), lower in groups.items():
                if len(lower) * DENSE_SHARE >= size:
                    dense.setdefault(d, []).append((a, mask_of(rank, lower)))
                else:
                    for v in lower:
                        sparse.append((v, order[rank[v] + d], a))
            self._edge_masks = EdgeMasks(
                tuple((d, tuple(masks)) for d, masks in dense.items()),
                tuple(sparse),
                mask_of(rank, self.border_areas),
            )
        return self._edge_masks

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """The connected components, each a sorted tuple, in the order of
        their smallest vertex; searched on the first request and kept."""
        if self._components is None:
            vertices = self._vertices
            self._components = tuple(
                tuple(sorted(comp))
                for comp in components(self, self.order(), lambda s: vertices)
            )
        return self._components

    def adjacent(self, v: int) -> Tuple[int, ...]:
        """Vertices sharing a facet with ``v``, in increasing order."""
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def adjacency(self) -> Mapping[int, Tuple[int, ...]]:
        """The table behind :meth:`adjacent`, vertex -> its neighbours in
        increasing order, for loops that read many vertices' neighbours
        and can skip the per-call vertex check.  It is the geometry's own
        table: read it, never change it."""
        return self._adj

    def facet_areas(self) -> Mapping[int, Tuple[int, ...]]:
        """Vertex -> the areas of the facets it shares with its
        neighbours, aligned with its :meth:`adjacency` row, so
        ``zip(adjacency()[v], facet_areas()[v])`` walks its edges.  Equal
        rows are one tuple.  It is the geometry's own table: read it,
        never change it."""
        return self._facet_areas

    def edge_areas(self, v: int) -> Dict[int, int]:
        """Each neighbour of ``v`` with the area of the facet they share,
        a new dict built from the two rows."""
        try:
            return dict(zip(self._adj[v], self._facet_areas[v]))
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def outside_area(self) -> int:
        """Total area of the geometry boundary (all border facets once)."""
        return sum(self.border_areas.values())

    def volume(self, v: int) -> int:
        try:
            return self._volume[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every adjacent pair ``v < w``, in increasing order."""
        adj = self._adj
        return ((v, w) for v in self.order() for w in adj[v] if w > v)


def mask_of(rank: Mapping[int, int], vertices: Iterable[int]) -> int:
    """The mask of a vertex set: bit ``rank[v]`` per vertex ``v``, over
    as many ranks as ``rank`` has, set in a V/8-byte buffer."""
    buffer = bytearray((len(rank) + 7) // 8)
    for v in vertices:
        r = rank[v]
        buffer[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buffer, "little")


#: per bit b of a byte, the table that translates each byte to the
#: binary digit of its bit b
_BIT_DIGITS = [bytes(49 if i >> b & 1 else 48 for i in range(256)) for b in range(8)]


def value_planes(ranked: Sequence[int]) -> Tuple[int, List[int]]:
    """The least of the values ``ranked``, listed in rank order, and, per
    bit ``b`` of the offsets ``value - least``, the mask of the ranks
    whose offset has bit ``b`` set; :func:`masked_sum` reads them.

    The offsets are read once, highest rank first; each group of eight
    bits of them is one string of bytes, and each bit a translation of
    that string to binary digits.  Every pass is a ``map``, so no Python
    code runs per vertex."""
    low = min(ranked, default=0)
    # highest rank first, as int(digits, 2) reads the top bit first
    offsets = list(map(sub, reversed(ranked), repeat(low)))
    width = max(offsets, default=0).bit_length()
    planes = []
    for shift in range(0, width, 8):
        chunk = bytes(
            offsets if width <= 8 else map(and_, map(rshift, offsets, repeat(shift)), repeat(255))
        )
        for table in _BIT_DIGITS[:width - shift]:
            planes.append(int(chunk.translate(table), 2))
    return low, planes


def masked_sum(low: int, planes: Sequence[int], mask: int) -> int:
    """The sum of the values of the ranks in ``mask``, from the least
    value and the bit planes :func:`value_planes` returns: ``low`` per
    rank plus each plane's popcount within the mask, shifted by its bit."""
    total = low * mask.bit_count()
    for b, plane in enumerate(planes):
        total += (mask & plane).bit_count() << b
    return total


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


def grid_vertices(w: int, h: int, d: int = 1, dim: Optional[int] = None) -> range:
    """The vertex ids of ``grid(w, h, d, dim=dim)``, ``x + w * (y + h * z)``
    for the cell at ``(x, y, z)``; the arguments are checked as ``grid``
    checks them, but no geometry is built."""
    if w < 1 or h < 1 or d < 1:
        raise InputError(f"grid dimensions must be at least 1, got {w}x{h}x{d}")
    if dim is None:
        dim = 3
    if dim not in (2, 3):
        raise InputError(f"dim must be 2 or 3, got {dim}")
    if dim == 2 and d != 1:
        raise InputError(f"a 2D grid needs d=1, got d={d}")
    return range(w * h * d)


def grid(
    w: int,
    h: int,
    d: int = 1,
    cell_area: int = 1,
    cell_volume: int = 1,
    dim: Optional[int] = None,
) -> Geometry:
    """Cuboid of ``w * h * d`` same-sized cells.

    ``dim`` defaults to 3; pass ``dim=2`` (requires ``d == 1``) for a flat
    grid whose cells have four side facets.  All facets get ``cell_area``
    and all cells ``cell_volume``, each a positive int.

    No facet is numbered: along an axis of stride ``s``, cell ``i`` and
    cell ``i + s`` share a facet unless ``i`` is last on the axis, and a
    cell's border area is ``cell_area`` per face on the hull.  The edges
    along each axis of extent above 1 are one dense edge-mask group of
    offset ``s``, whose bits are the cells not last on the axis.  The
    grid is connected, so its ``components()`` are all its cells, with
    no search.
    """
    vertices = grid_vertices(w, h, d, dim)
    if dim is None:
        dim = 3
    for name, value in (("cell_area", cell_area), ("cell_volume", cell_volume)):
        if not isinstance(value, int) or value <= 0:
            raise InputError(f"{name} must be a positive integer, got {value!r}")
    size = len(vertices)
    # every table keys a cell by this one int object: a dict lookup with
    # the stored key object passes on identity, an equal int compares
    ids = list(vertices)
    rows: List[List[int]] = [[] for _ in ids]
    edges = []  # per axis of extent above 1, its stride and its edges' lower ends
    dense = []
    hull = 0  # per cell a base-256 digit: its faces on the hull
    for extent, stride in ((w, 1), (h, w), (d, w * h))[:dim]:
        block = extent * stride  # the cells that share their later coordinates
        blocks = size // block
        first = (b"\x01" * stride + bytes(block - stride)) * blocks
        # the last cells on the axis are the first ones mirrored
        hull += int.from_bytes(first, "big") + int.from_bytes(first, "little")
        if extent == 1:
            continue
        # the cells not last on the axis, each the lower end of an edge
        lower = (b"\x01" * (block - stride) + bytes(stride)) * blocks
        edges.append((stride, lower))
        # the same cells as a mask, its highest bit first
        bits = (b"0" * stride + b"1" * (block - stride)) * blocks
        dense.append((stride, ((cell_area, int(bits, 2)),)))
    # each cell's neighbours in increasing order: the lower ones, farthest
    # first, then the upper ones, nearest first
    for stride, lower in reversed(edges):
        for lo, row in zip(compress(ids, lower), compress(rows[stride:], lower)):
            row.append(lo)
    for stride, lower in edges:
        for row, hi in zip(compress(rows, lower), compress(ids[stride:], lower)):
            row.append(hi)
    # every facet has the cell area, so the area rows differ only in length
    areas = [(cell_area,) * k for k in range(2 * dim + 1)]
    faces = hull.to_bytes(size, "big")
    border = dict(zip(compress(ids, faces), [cell_area * f for f in faces if f]))
    return Geometry._from_tables(
        dim,
        dict(zip(ids, map(tuple, rows))),
        dict(zip(ids, [areas[len(row)] for row in rows])),
        border,
        dict.fromkeys(ids, cell_volume),
        # a grid's ranks are its ids, so its vertex range is its rank table
        EdgeMasks(tuple(dense), (), mask_of(vertices, border)),
        # a grid is connected: its one component holds every cell
        (tuple(ids),),
    )


class OrderedPath:
    """A simple path through the geometry: its ``interior`` vertices, in
    order, each once."""

    def __init__(self, interior: Sequence[int], geometry: Optional[Geometry] = None):
        self.interior: Tuple[int, ...] = tuple(interior)
        if len(set(self.interior)) != len(self.interior):
            raise InputError("path vertices must be pairwise distinct")
        if geometry is not None:
            for a, b in zip(self.interior, self.interior[1:]):
                if b not in geometry.adjacent(a):
                    raise InputError(f"path vertices {a} and {b} are not adjacent")

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedPath) and self.interior == other.interior

    def __repr__(self) -> str:
        return f"OrderedPath({list(self.interior)!r})"
