"""Region graphs with shared areas and volumes.

A geometry is a purely combinatorial description of a partitioned space.
Its input is a facet structure: vertices are atomic regions, facets are
the flat boundary elements between two adjacent regions or between a
border region and the outside.  Every facet carries a positive integer
surface area and every vertex a positive integer volume, in
instance-defined units.  Two-dimensional instances are depth-1 cell
complexes whose facet "areas" are side lengths.

Once the facet structure is checked, a geometry keeps per vertex only
what the search reads: each neighbour with the area of the facet they
share, the total area of the vertex's border facets, and its volume.

The paper closes the geometry with an outside vertex adjacent to every
border vertex.  Here the outside is no vertex: a vertex's border area
stands for its facets with the outside, which no colouring can share, so
it always counts as border.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, KeysView, Mapping, Optional, Sequence, Tuple

from .errors import InputError


class Geometry:
    """Immutable region graph derived from a facet structure.

    Adjacency is not given separately: two vertices are adjacent exactly
    when they share a facet, so symmetry and irreflexivity hold by
    construction, and the one-facet-per-edge invariant is validated here.
    The facets themselves are not kept.
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
        #: the total area of each vertex's facets that no other vertex
        #: shares; only border vertices have an entry
        self.border_areas: Dict[int, int] = {}
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
                self.border_areas[v] = self.border_areas.get(v, 0) + a
                continue
            v, w = sorted(vs)
            if w in edge_areas[v]:
                twice = twice or (v, w, f)
                continue
            edge_areas[v][w] = a
            edge_areas[w][v] = a
        self._volume: Dict[int, int] = {}
        for v in edge_areas:
            if v not in volume:
                raise InputError(f"vertex {v} has no volume")
            w = volume[v]
            if not isinstance(w, int) or w <= 0:
                raise InputError(f"vertex {v} volume must be a positive integer, got {w!r}")
            self._volume[v] = w
        if twice is not None:
            v, w, f = twice
            first = next(g for g, vs in owners.items() if g != f and sorted(vs) == [v, w])
            raise InputError(
                f"vertices {v} and {w} share facets {first} and {f}, "
                "exactly one shared facet is allowed"
            )
        self._edge_areas = edge_areas
        # stored, so that the hot path allocates nothing per call
        self._adj: Dict[int, KeysView[int]] = {v: ws.keys() for v, ws in edge_areas.items()}
        self._vertices: FrozenSet[int] = frozenset(edge_areas)

    @property
    def vertices(self) -> FrozenSet[int]:
        return self._vertices

    def adjacent(self, v: int) -> KeysView[int]:
        """Vertices sharing a facet with ``v``."""
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def edge_areas(self, v: int) -> Mapping[int, int]:
        """Each neighbour of ``v`` with the area of the facet they share."""
        try:
            return self._edge_areas[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def edge_area(self, v: int, w: int) -> int:
        """Surface area crossed when moving between adjacent ``v`` and ``w``."""
        try:
            return self.edge_areas(v)[w]
        except KeyError:
            raise InputError(f"vertices {v} and {w} are not adjacent") from None

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
        return iter(sorted(
            (v, w) for v, ws in self._edge_areas.items() for w in ws if v < w
        ))

    def __len__(self) -> int:
        return len(self._edge_areas)


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
