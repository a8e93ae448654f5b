"""The state's component index, and compact mode A's per-component
volumes and spheres kept by its labels, against from-scratch components
along random walks; the index's split search against a flood of the
split vertex's component, vertex by vertex."""

import collections.abc
import itertools
import math
import random

import pytest

from oracles import (
    assert_caches_match_rebuild,
    assert_index_matches_components,
    assert_split_matches_flood,
    random_colours,
)
from sectorsearch import bench
from sectorsearch.constraints import CompactConstraint, ConnectedConstraint, sphere_surface
from sectorsearch.engine import Model
from sectorsearch.geometry import Geometry, grid
from sectorsearch.state import ColourState


def assert_compact_caches_match_components(c, st):
    index = st.component_index()
    dim = st.geometry.dim
    spheres = [{} for _ in range(st.n + 1)]
    for comp in st.connected_components():
        lab = index.label[min(comp.vertices)]
        assert c.nu[lab] == comp.volume
        spheres[comp.colour][lab] = sphere_surface(comp.volume, dim)
    assert set(c.nu) == set(index.size)
    assert c.spheres == spheres
    assert c.sphere_sums == [math.fsum(s.values()) for s in spheres]
    assert c.sphere_total == math.fsum(c.sphere_sums)
    # mode A sums the plain border areas, whatever the weight
    assert c.border_total == sum(st.border_area(v) for v in st.geometry.vertices)
    fresh = CompactConstraint(st, c.threshold, mode="A", weight_fn=c.weight_fn, probe=c.probe)
    assert c.violation() == fresh.violation()


@pytest.mark.parametrize(
    "with_connected, weight_fn",
    [
        pytest.param(False, "identity", id="compact-alone"),
        pytest.param(True, "identity", id="with-connected"),
        pytest.param(False, "square", id="compact-alone-square"),
        pytest.param(True, "square", id="with-connected-square"),
    ],
)
def test_walk_keeps_index_and_compact_sums(with_connected, weight_fn):
    rng = random.Random(71)
    geometry = grid(4, 4, 3)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    compact = CompactConstraint(st, threshold=0, mode="A", weight_fn=weight_fn, probe="exact")
    constraints = [compact]
    if with_connected:
        constraints.append(ConnectedConstraint(st, "=", n))
    model = Model(st, [(c, 1) for c in constraints])
    index = st.component_index()
    splits = merges = commits = 0

    def check():
        # keep some splits, so the audit checks them against a flood
        for u in st.order[commits % 7 :: 7]:
            index.split(u)
        assert_caches_match_rebuild(st, constraints)
        assert_compact_caches_match_components(compact, st)

    while commits < 400:
        v = rng.choice(st.order)
        colour = rng.randint(1, n)
        if colour == st.colour(v):
            continue
        before = compact.violation()
        delta = compact.probe_assign(v, colour)
        model.assign(v, colour)
        # the exact probe is the committed change, to the last bit
        assert delta == compact.violation() - before
        commits += 1
        splits += index.change.pieces >= 2
        merges += len(index.change.joined) >= 2
        check()
        if commits % 50 == 0:
            model.set_all(random_colours(rng, geometry, n))
            check()
    assert splits > 20 and merges > 20


def test_a_split_is_searched_once_per_vertex_and_state():
    rng = random.Random(73)
    geometry = grid(4, 4, 3)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    compact = CompactConstraint(st, threshold=0, mode="A", probe="exact")
    connected = ConnectedConstraint(st, "=", n)
    model = Model(st, [(compact, 1), (connected, 1)])
    index = st.component_index()
    searched = []
    split_search = index._split_search

    def counting_search(v):
        searched.append(v)
        return split_search(v)

    index._split_search = counting_search
    splits = 0
    for step in range(300):
        probed = rng.sample(st.order, 3)
        for v in probed:
            for colour in range(1, n + 1):
                if colour != st.colour(v):
                    compact.probe_assign(v, colour)
                    connected.probe_assign(v, colour)
        # both exact probes of every other colour share one search
        assert sorted(searched) == sorted(probed)
        searched.clear()
        # the commit of a probed vertex reuses its search; a commit
        # without a probe, as after a noise draw, runs its own
        v = probed[0] if step % 4 else rng.choice([u for u in st.order if u not in probed])
        model.assign(v, rng.choice([c for c in range(1, n + 1) if c != st.colour(v)]))
        assert searched == ([] if step % 4 else [v])
        searched.clear()
        splits += index.change.pieces >= 2
        assert_index_matches_components(index, geometry, st.snapshot(), n)
        assert_compact_caches_match_components(compact, st)
        if step % 50 == 49:
            # a rebuild relabels, so a split found before it is searched again
            index.split(v)
            model.set_all(random_colours(rng, geometry, n))
            index.split(v)
            assert searched == [v, v]
            searched.clear()
    assert splits > 20


def test_probe_bench_times_a_split_search_per_exact_probe():
    # the probe bench repeats moves and commits nothing, so without
    # dropping the kept splits its exact probes would time dict lookups
    state, constraints, moves = bench._setup(6, seed=0)
    index = state.component_index()
    searched = []
    split_search = index._split_search

    def counting_search(v):
        searched.append(v)
        return split_search(v)

    index._split_search = counting_search
    batch = moves[:3] * 2
    bench._time_probes(constraints["connected-exact"], batch, index.forget_splits)
    assert searched == [v for v, _ in batch]


def test_probe_bench_brick_wall_leaves_every_split_to_the_search():
    # the brick wall batch is there to time breadth-first split searches:
    # no two same-colour neighbours of a moved vertex are adjacent or share
    # another same-colour neighbour, so the grouping settles none of its
    # splits, and the mortar's T-junctions give three searches
    state, _, moves = bench._bricks(14, seed=0)
    geometry = state.geometry
    neighbours = {v: set(geometry.adjacent(v)) for v in geometry.vertices}
    start_counts = set()
    for v, _ in moves:
        cv = state.colour(v)
        starts = [w for w in neighbours[v] if state.colour(w) == cv]
        start_counts.add(len(starts))
        for s, t in itertools.combinations(starts, 2):
            assert t not in neighbours[s]
            assert all(
                c == v or state.colour(c) != cv for c in neighbours[s] & neighbours[t]
            )
    assert {2, 3} <= start_counts


def triangulated(w, h):
    """A ``w`` x ``h`` lattice of cells with one diagonal per square, so
    that inner cells have six neighbours and neighbours of a cell can be
    adjacent; ids ``3 * (x + w * y) + 1``, facet areas 1 to 3, no border
    facets."""
    def ident(x, y):
        return 3 * (x + w * y) + 1

    facets_of = {ident(x, y): [] for x in range(w) for y in range(h)}
    areas = {}
    for y in range(h):
        for x in range(w):
            for dx, dy in ((1, 0), (0, 1), (1, 1)):
                if x + dx < w and y + dy < h:
                    facets_of[ident(x, y)].append(len(areas))
                    facets_of[ident(x + dx, y + dy)].append(len(areas))
                    areas[len(areas)] = 1 + len(areas) % 3
    return Geometry(facets_of, areas, dict.fromkeys(facets_of, 1), 2)


def drawn(rows):
    """A 2D grid coloured by ``rows`` of colour digits, top row first."""
    geometry = grid(len(rows[0]), len(rows), dim=2)
    width = len(rows[0])
    colours = {x + width * y: int(c) for y, row in enumerate(rows) for x, c in enumerate(row)}
    return geometry, colours


#: hand-built splits: the rows, the split vertex (x, y) and its piece count
DRAWN = {
    # the middle of a 1-wide path has two pieces, and its starts meet
    # nowhere near it
    "path": (["22222", "11111", "22222"], (2, 1), 2),
    # a corner of a 2x2 block: its starts share the fourth cell
    "block-corner": (["11", "11"], (0, 0), 1),
    # a corner of a ring: its starts' common neighbour is the hole, so only
    # the search finds them joined, around the ring
    "ring": (["1111", "1221", "1221", "1111"], (0, 0), 1),
    # the centre of a plus: four arms, whose starts share only v and
    # corners of the other colour, so the search runs with four groups
    "plus": (["22122", "22122", "11111", "22122", "22122"], (2, 2), 4),
    # three groups search: the upper and the left start meet around the
    # hole at (2, 1), and the group that takes the other over closes, with
    # both groups' vertices, while the right start's long arm is still open
    "hole-then-arm": (
        ["2111222", "2121221", "2111111", "2222221", "1111111", "2222222"],
        (3, 2),
        2,
    ),
    # starts in id order up, left, right, down: left opens group 1, right
    # joins the upper start's group 0, and down joins group 1 first, through
    # left, then meets group 0, through right, so group 1 takes group 0 over
    "higher-group-first": (["211", "111", "111"], (1, 1), 1),
}


def random_cases(geometry, seed, rounds=12):
    rng = random.Random(seed)
    for k in range(rounds):
        yield random_colours(rng, geometry, 2 + k % 3)


@pytest.mark.parametrize(
    "case",
    ["grid-2d", "grid-3d", "triangulated", *DRAWN],
)
def test_split_matches_a_flood(case):
    if case in DRAWN:
        rows, (x, y), pieces = DRAWN[case]
        geometry, colours = drawn(rows)
        colourings = [colours]
    else:
        geometry = {
            "grid-2d": lambda: grid(7, 6, dim=2),
            "grid-3d": lambda: grid(4, 4, 3),
            "triangulated": lambda: triangulated(6, 5),
        }[case]()
        colourings = random_cases(geometry, seed=len(case))
    three_or_more = 0
    for colours in colourings:
        index = ColourState(geometry, max(colours.values()), colours=colours).component_index()
        for v in sorted(geometry.vertices):
            found = index._split_search(v)
            assert_split_matches_flood(geometry, colours, v, found)
            three_or_more += found[0] >= 3
    if case in DRAWN:
        assert index._split_search(x + len(rows[0]) * y)[0] == pieces
    else:
        assert three_or_more, "no vertex split into three or more pieces"


class CountingAdjacency(collections.abc.Mapping):
    """A geometry's neighbour table, as ``adjacency()`` hands it out,
    that records every vertex whose neighbours are read."""

    def __init__(self, table):
        self.table = table
        self.reads = []

    def __getitem__(self, v):
        self.reads.append(v)
        return self.table[v]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def counted_index(geometry, colours):
    index = ColourState(geometry, max(colours.values()), colours=colours).component_index()
    table = CountingAdjacency(geometry.adjacency())
    geometry.adjacency = lambda: table
    return index, table.reads


@pytest.mark.parametrize("dim", [2, 3])
def test_linked_starts_are_not_searched(dim):
    # in a one-colour block every vertex's starts are linked through
    # common neighbours, so a split reads the neighbours of v and of its
    # starts and nothing else
    geometry = grid(4, 4, dim=2) if dim == 2 else grid(3, 3, 3)
    neighbours = {v: set(geometry.adjacent(v)) for v in geometry.vertices}
    index, reads = counted_index(geometry, dict.fromkeys(geometry.vertices, 1))
    for v in sorted(geometry.vertices):
        reads.clear()
        assert index._split_search(v) == (1, [])
        assert reads[0] == v
        assert set(reads) <= {v} | neighbours[v]


@pytest.mark.parametrize("case", ["path", "ring"])
def test_unlinked_starts_are_searched(case):
    rows, (x, y), pieces = DRAWN[case]
    geometry, colours = drawn(rows)
    v = x + len(rows[0]) * y
    near = {v} | set(geometry.adjacent(v))
    index, reads = counted_index(geometry, colours)
    assert index._split_search(v)[0] == pieces
    assert set(reads) - near, "no vertex beyond the starts read"


def test_brick_wall_split_reads_do_not_grow_with_the_wall():
    # a brick wall's splits all reach the breadth-first loop, and its bricks
    # and mortar keep one shape at every size, so the most neighbour-table
    # reads an exact probe makes must not grow with the wall either
    most = {}
    for side in (32, 100):
        state, connected, moves = bench._bricks(side, seed=0)
        geometry = state.geometry
        table = CountingAdjacency(geometry.adjacency())
        geometry.adjacency = lambda: table
        index = state.component_index()
        reads = []
        for v, c in moves:
            index.forget_splits()
            table.reads.clear()
            connected.probe_assign(v, c)
            reads.append(len(table.reads))
        most[side] = max(reads)
    assert most[32] == most[100] <= 33, most
