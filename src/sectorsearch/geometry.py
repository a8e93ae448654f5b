"""Region graphs with explicit facet structure, areas and volumes.

A geometry is a purely combinatorial description of a partitioned space:
vertices are atomic regions, facets are the flat boundary elements between
two adjacent regions or between a border region and the outside.  Every
facet carries a positive integer surface area and every vertex a positive
integer volume, in instance-defined units.  Two-dimensional instances are
depth-1 cell complexes whose facet "areas" are side lengths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError

#: id of the virtual outside vertex added by :func:`envelop`
BOTTOM = -1
#: id of the single facet owned by the outside vertex
BOTTOM_FACET = -1


class Geometry:
    """Immutable region graph derived from a facet structure.

    Adjacency is not given separately: two vertices are adjacent exactly
    when they share a facet, so symmetry and irreflexivity hold by
    construction, and the one-facet-per-edge invariant is validated here.
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
        self.dim = dim
        self._facets_of: Dict[int, FrozenSet[int]] = {}
        owners: Dict[int, list] = {}
        for v, fs in facets_of.items():
            if not isinstance(v, int) or v < 0:
                raise InputError(f"vertex ids must be non-negative integers, got {v!r}")
            fset = frozenset(fs)
            self._facets_of[v] = fset
            for f in fset:
                vs = owners.get(f)
                if vs is None:
                    owners[f] = [v]
                else:
                    vs.append(v)
        self._area: Dict[int, int] = {}
        self._owners: Dict[int, Tuple[int, ...]] = {}
        # the facets of each vertex that no other vertex shares, in the
        # order of its facet set
        single: Dict[int, List[int]] = {}
        for f, vs in owners.items():
            if len(vs) > 2:
                raise InputError(f"facet {f} has {len(vs)} owners, at most 2 allowed")
            if f not in facet_area:
                raise InputError(f"facet {f} has no area")
            a = facet_area[f]
            if not isinstance(a, int) or a <= 0:
                raise InputError(f"facet {f} area must be a positive integer, got {a!r}")
            self._area[f] = a
            vs.sort()
            self._owners[f] = tuple(vs)
            if len(vs) == 1:
                single.setdefault(vs[0], []).append(f)
        self._volume: Dict[int, int] = {}
        for v in self._facets_of:
            if v not in volume:
                raise InputError(f"vertex {v} has no volume")
            w = volume[v]
            if not isinstance(w, int) or w <= 0:
                raise InputError(f"vertex {v} volume must be a positive integer, got {w!r}")
            self._volume[v] = w

        # adjacency and the edge -> shared facet map, keyed by the owner
        # tuples, so no vertex pair is stored twice
        adj: Dict[int, set] = {v: set() for v in self._facets_of}
        self._shared: Dict[Tuple[int, int], int] = {}
        for f, key in self._owners.items():
            if len(key) == 2:
                v, w = key
                if key in self._shared:
                    raise InputError(
                        f"vertices {v} and {w} share facets {self._shared[key]} and {f}, "
                        "exactly one shared facet is allowed"
                    )
                self._shared[key] = f
                adj[v].add(w)
                adj[w].add(v)
        self._adj: Dict[int, FrozenSet[int]] = {v: frozenset(ws) for v, ws in adj.items()}
        # interior vertices share one empty set instead of holding one each
        no_facets: FrozenSet[int] = frozenset()
        self._border_facets: Dict[int, FrozenSet[int]] = {
            v: frozenset(single[v]) if v in single else no_facets for v in self._facets_of
        }
        self._border: FrozenSet[int] = frozenset(
            v for v, fs in self._border_facets.items() if fs
        )
        self._vertices: FrozenSet[int] = frozenset(self._facets_of)

    @property
    def vertices(self) -> FrozenSet[int]:
        return self._vertices

    @property
    def facets(self) -> FrozenSet[int]:
        return frozenset(self._area)

    def adjacent(self, v: int) -> FrozenSet[int]:
        """Vertices sharing a facet with ``v``."""
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def facets_of(self, v: int) -> FrozenSet[int]:
        try:
            return self._facets_of[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def shared_facet(self, v: int, w: int) -> int:
        """The unique facet shared by the adjacent pair ``v``, ``w``."""
        key = (v, w) if v < w else (w, v)
        try:
            return self._shared[key]
        except KeyError:
            raise InputError(f"vertices {v} and {w} are not adjacent") from None

    def area(self, v: int, f: int) -> int:
        if f not in self.facets_of(v):
            raise InputError(f"facet {f} does not belong to vertex {v}")
        return self._area[f]

    def facet_area(self, f: int) -> int:
        try:
            return self._area[f]
        except KeyError:
            raise InputError(f"unknown facet {f}") from None

    def owners(self, f: int) -> Tuple[int, ...]:
        try:
            return self._owners[f]
        except KeyError:
            raise InputError(f"unknown facet {f}") from None

    def volume(self, v: int) -> int:
        try:
            return self._volume[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def border_facets(self, v: int) -> FrozenSet[int]:
        """Facets of ``v`` shared with no other vertex."""
        try:
            return self._border_facets[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def border_vertices(self) -> FrozenSet[int]:
        """Vertices owning at least one border facet."""
        return self._border

    def edges(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._shared))

    def shared_areas(self) -> Iterator[Tuple[int, int, int]]:
        """Every adjacent pair ``v < w`` with the area of the facet they
        share, in no particular order."""
        area = self._area
        for (v, w), f in self._shared.items():
            yield v, w, area[f]

    def __len__(self) -> int:
        return len(self._facets_of)


class EnvelopedGeometry:
    """A geometry plus the virtual outside vertex.

    The outside vertex ``BOTTOM`` is adjacent to exactly the border
    vertices of the base geometry and owns the single facet
    ``BOTTOM_FACET``.  The bottom facet carries no area of its own; the
    area crossed by a bottom edge is the total area of the border
    vertex's own border facets.
    """

    def __init__(self, base: Geometry):
        self.base = base
        self.bottom = BOTTOM
        self.bottom_facet = BOTTOM_FACET
        self.border_areas: Dict[int, int] = {
            v: sum(base.facet_area(f) for f in base.border_facets(v))
            for v in base.border_vertices()
        }
        # a border vertex's neighbours with the outside, each built on its
        # first use: built here, among the transient objects of a model
        # build, they fragmented the allocator's arenas, and repeated 80x80
        # builds peaked 1.5 MB higher
        self._adj_out: Dict[int, FrozenSet[int]] = {}

    @property
    def vertices(self) -> FrozenSet[int]:
        """The real vertices; ``BOTTOM`` is queried explicitly."""
        return self.base.vertices

    @property
    def dim(self) -> int:
        return self.base.dim

    def adjacent(self, v: int) -> FrozenSet[int]:
        if v == BOTTOM:
            return self.base.border_vertices()
        ws = self._adj_out.get(v)
        if ws is None:
            ws = self.base.adjacent(v)
            if v in self.border_areas:
                ws = self._adj_out[v] = ws | {BOTTOM}
        return ws

    def facets_of(self, v: int) -> FrozenSet[int]:
        if v == BOTTOM:
            return frozenset({BOTTOM_FACET})
        return self.base.facets_of(v)

    def edge_area(self, v: int, w: int) -> int:
        """Surface area crossed when moving between adjacent ``v`` and ``w``."""
        if v == BOTTOM or w == BOTTOM:
            other = w if v == BOTTOM else v
            try:
                return self.border_areas[other]
            except KeyError:
                raise InputError(f"vertex {other} is not on the geometry border") from None
        return self.base.facet_area(self.base.shared_facet(v, w))

    def outside_area(self) -> int:
        """Total area of the geometry boundary (all border facets once)."""
        return sum(self.border_areas.values())


def envelop(g: Geometry) -> EnvelopedGeometry:
    """Attach the outside vertex to every border vertex of ``g``.

    Enveloping an already enveloped geometry is rejected rather than
    treated as a no-op: a second sentinel would silently corrupt border
    logic downstream.
    """
    if isinstance(g, EnvelopedGeometry):
        raise InputError("geometry is already enveloped")
    return EnvelopedGeometry(g)


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
    and all cells ``cell_volume``.
    """
    vertices = grid_vertices(w, h, d, dim)
    if dim is None:
        dim = 3

    # per axis, a low border facet, then the facet towards the next cell
    # or a high border facet, numbered in that order
    facets_of: Dict[int, list] = {v: [] for v in vertices}
    strides = ((w, 1), (h, w), (d, w * h))[: 3 if dim == 3 else 2]
    fid = 0
    v = 0
    for z in range(d):
        for y in range(h):
            for x in range(w):
                own = facets_of[v]
                for coord, (extent, stride) in zip((x, y, z), strides):
                    if coord == 0:
                        own.append(fid)
                        fid += 1
                    own.append(fid)
                    if coord != extent - 1:
                        facets_of[v + stride].append(fid)
                    fid += 1
                v += 1
    areas = dict.fromkeys(range(fid), cell_area)
    volumes = dict.fromkeys(facets_of, cell_volume)
    return Geometry(facets_of, areas, volumes, dim)


class OrderedPath:
    """A simple path through the geometry, with ``BOTTOM`` sentinels.

    Interior vertices appear once each; the predecessor of the first and
    the successor of the last interior vertex are ``BOTTOM``.
    """

    def __init__(self, interior: Sequence[int], geometry: Optional[Geometry] = None):
        self.interior: Tuple[int, ...] = tuple(interior)
        if BOTTOM in self.interior:
            raise InputError("the outside vertex cannot appear inside a path")
        if len(set(self.interior)) != len(self.interior):
            raise InputError("path vertices must be pairwise distinct")
        if geometry is not None:
            base = geometry.base if isinstance(geometry, EnvelopedGeometry) else geometry
            for a, b in zip(self.interior, self.interior[1:]):
                if b not in base.adjacent(a):
                    raise InputError(f"path vertices {a} and {b} are not adjacent")
        self._pos: Dict[int, int] = {v: i for i, v in enumerate(self.interior)}

    def position(self, v: int) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise InputError(f"vertex {v} is not on the path") from None

    def pred(self, v: int) -> int:
        i = self.position(v)
        return self.interior[i - 1] if i > 0 else BOTTOM

    def succ(self, v: int) -> int:
        i = self.position(v)
        return self.interior[i + 1] if i + 1 < len(self.interior) else BOTTOM

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def __iter__(self) -> Iterator[int]:
        yield BOTTOM
        yield from self.interior
        yield BOTTOM

    def __len__(self) -> int:
        # sentinel-inclusive length
        return len(self.interior) + 2

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedPath) and self.interior == other.interior

    def __repr__(self) -> str:
        return f"OrderedPath({list(self.interior)!r})"
