"""The state's component index, and compact mode A's per-colour sphere
sums, which it reads from the index's component masks, against
from-scratch components along random walks, on grids and on a facet
geometry with scattered ids and volumes; the index's split search
against a flood of the split vertex's component, vertex by vertex; exact
connectedness's stray mask, the vertices outside their colour's largest
component, against a flood of each fragmented class, and worked out
again only on a commit that can change it; and the neighbour reads of a
split and of a commit."""

import collections.abc
import itertools
import math
import random

import pytest

from oracles import (
    assert_caches_match_rebuild,
    assert_index_matches_components,
    assert_split_matches_flood,
    facet_grid,
    index_counts,
    naive_components,
    naive_stray,
    random_colours,
    relabelled,
)
from sectorsearch import bench, geometry as geometry_module
from sectorsearch.constraints import CompactConstraint, ConnectedConstraint, sphere_surface
from sectorsearch.engine import Model
from sectorsearch.geometry import Geometry, grid
from sectorsearch.instance import generate
from sectorsearch.state import ColourState, ComponentIndex, grow_regions


def split_and_merge(index, old, new, count):
    """Whether a commit ``old -> new`` split the moved vertex's component
    into two or more pieces, and whether it joined two or more components
    of the new colour, from the colour counts before it, ``count``: the
    old colour's count rises exactly on the first, the new colour's
    falls exactly on the second."""
    after = index_counts(index)
    return after[old] > count[old], after[new] < count[new]


def assert_compact_caches_match_components(c, st):
    index = st.component_index()
    dim = st.geometry.dim
    volumes = [{} for _ in range(st.n + 1)]
    for comp in st.connected_components():
        volumes[comp.colour][index.label[min(comp.vertices)]] = comp.volume
    sums = [math.fsum(sphere_surface(nu, dim) for nu in t.values()) for t in volumes]
    assert c.sphere_sums == sums
    assert c.sphere_total == math.fsum(sums)
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
        old, count = st.colour(v), index_counts(index)
        model.assign(v, colour)
        # the exact probe is the committed change, to the last bit
        assert delta == compact.violation() - before
        commits += 1
        split, merge = split_and_merge(index, old, colour, count)
        splits += split
        merges += merge
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
        # without a probe, as a direct Model.assign makes, runs its own
        v = probed[0] if step % 4 else rng.choice([u for u in st.order if u not in probed])
        old, count = st.colour(v), index_counts(index)
        new = rng.choice([c for c in range(1, n + 1) if c != old])
        model.assign(v, new)
        assert searched == ([] if step % 4 else [v])
        searched.clear()
        splits += split_and_merge(index, old, new, count)[0]
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


@pytest.mark.parametrize("dim", [2, 3])
def test_mode_a_reads_scattered_volumes_from_the_index_masks(dim):
    # volumes of 1..700 take ten bit planes, and scattered ids make the
    # ranks differ from the ids; exact connectedness reads the same index
    rng = random.Random(31 + dim)
    base = grid(6, 5, dim=2) if dim == 2 else grid(4, 3, 3, dim=3)
    volumes = {v: rng.randint(1, 700) for v in sorted(base.vertices)}
    volumes[min(volumes)], volumes[max(volumes)] = 1, 700
    geometry = relabelled(base, lambda v: 7 * v + 3, volume=volumes.__getitem__)
    n = 4
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    # a threshold far below zero keeps the violation off its floor, so
    # every probe's delta is the change of the border total minus spheres
    compact = CompactConstraint(st, threshold=-10**6, mode="A", probe="exact")
    connected = ConnectedConstraint(st, "=", n)
    model = Model(st, [(compact, 1), (connected, 1)])
    index = st.component_index()
    assert len(compact._planes) == 10
    splits = merges = 0
    for step in range(400):
        if step % 80 == 79:
            model.set_all(
                grow_regions(geometry, n, rng) if step % 160 == 79
                else random_colours(rng, geometry, n)
            )
        else:
            v = rng.choice(st.order)
            old, count = st.colour(v), index_counts(index)
            new = rng.choice([c for c in range(1, n + 1) if c != old])
            before = compact.violation()
            delta = compact.probe_assign(v, new)
            model.assign(v, new)
            # the exact probe is the committed change, to the last bit
            assert delta == compact.violation() - before
            split, merge = split_and_merge(index, old, new, count)
            splits += split
            merges += merge
        assert compact.violation() > 0
        assert_compact_caches_match_components(compact, st)
        if step % 20 == 0:
            assert_caches_match_rebuild(st, [compact, connected])
    assert splits > 10 and merges > 10, (splits, merges)


def test_the_stray_mask_is_worked_out_only_when_a_commit_can_change_it(monkeypatch):
    # exact connectedness works its stray mask out on every rebuild and on
    # a commit that changes a colour with more than one component, before
    # or after it; a commit between two colours of one component each
    # leaves it as it is
    calls = []
    stray_mask = ConnectedConstraint._stray_mask

    def counted_stray_mask(self):
        calls.append(self)
        return stray_mask(self)

    monkeypatch.setattr(ConnectedConstraint, "_stray_mask", counted_stray_mask)
    rng = random.Random(37)
    geometry = grid(6, 6, dim=2)
    n = 5
    st = ColourState(geometry, n)
    connected = ConnectedConstraint(st, "=", n)
    model = Model(st, [(connected, 1)])
    index = st.component_index()
    rebuilds, upkeep, left = 1, 0, 0
    for step in range(300):
        if step % 15 == 0:
            model.set_all(grow_regions(geometry, n, rng))
            rebuilds += 1
        v = rng.choice(st.order)
        old = st.colour(v)
        # a neighbour's colour where there is one, so that some commits
        # between grown regions keep both colours in one piece
        near = {st.colour(w) for w in geometry.adjacent(v)} - {old}
        new = rng.choice(sorted(near or set(range(1, n + 1)) - {old}))
        before = index_counts(index)
        model.assign(v, new)
        after = index_counts(index)
        if before[old] > 1 or before[new] > 1 or after[old] > 1 or after[new] > 1:
            upkeep += 1
        else:
            left += 1
    assert len(calls) == rebuilds + upkeep
    assert left > 0 and upkeep > 0, (left, upkeep)
    assert connected.conflicts() == naive_stray(geometry, st.snapshot(), n)


def _largest(colours, base, c):
    """Colour ``c``'s DFS components and the one the stray mask keeps:
    the largest, a tie going to the one holding the lowest vertex."""
    comps = [comp for colour, comp in naive_components(base, colours) if colour == c]
    return comps, max(comps, key=lambda comp: (len(comp), -min(comp)), default=None)


def test_stray_mask_follows_splits_merges_and_ties():
    # every commit of the walk is audited, masks and stray mask included,
    # and the walk must reach the three moves that change which component
    # a colour keeps
    rng = random.Random(5)
    geometry = grid(7, 6, dim=2)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    connected = ConnectedConstraint(st, "=", n)
    model = Model(st, [(connected, 1)])
    index = st.component_index()
    seen = {"split piece kept": 0, "merge overtakes": 0, "tie": 0}
    for step in range(1500):
        if step % 250 == 249:
            model.set_all(
                grow_regions(geometry, n, rng) if step % 500 == 249
                else random_colours(rng, geometry, n)
            )
            assert_caches_match_rebuild(st, [connected])
            continue
        v = rng.choice(st.order)
        new = rng.choice([c for c in range(1, n + 1) if c != st.colour(v)])
        old = st.colour(v)
        _, kept_before = _largest(st.snapshot(), geometry, new)
        count, labels = index_counts(index), set(index.label.values())
        model.assign(v, new)
        colours = st.snapshot()
        assert_caches_match_rebuild(st, [connected])
        split, merge = split_and_merge(index, old, new, count)
        _, kept = _largest(colours, geometry, old)
        # a label of the old colour that no component carried before the
        # commit is one the split minted for a piece it closed
        if split and index.label[min(kept)] not in labels:
            seen["split piece kept"] += 1
        _, kept = _largest(colours, geometry, new)
        if merge and v in kept and not kept_before <= kept:
            seen["merge overtakes"] += 1
        for c in (old, new):
            comps, kept = _largest(colours, geometry, c)
            if sum(len(comp) == len(kept) for comp in comps) >= 2:
                seen["tie"] += 1
    assert all(seen.values()), seen


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


def test_a_commits_mask_upkeep_reads_no_neighbour():
    # with its split already searched, as after a probe, a commit reads the
    # moved vertex's neighbours once and floods the components a merge
    # relabels, all but the largest; keeping the masks, and exact
    # connectedness's counts and stray mask, add no read
    rng = random.Random(9)
    geometry = grid(8, 8, dim=2)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    connected = ConnectedConstraint(st, "=", n)
    model = Model(st, [(connected, 1)])
    index = st.component_index()
    table = CountingAdjacency(geometry.adjacency())
    geometry.adjacency = lambda: table
    geometry.adjacent = table.__getitem__
    upkeep = 0
    for _ in range(400):
        v = rng.choice(st.order)
        colour = rng.choice([c for c in range(1, n + 1) if c != st.colour(v)])
        index.split(v)
        masks = index.component_masks(colour)
        joined = [masks[m].bit_count() for m in index.neighbour_labels(v, colour)]
        flooded = sum(joined) - max(joined, default=0)
        old, count = st.colour(v), index_counts(index)
        table.reads.clear()
        model.assign(v, colour)
        assert table.reads == [v] + table.reads[1:]
        assert len(table.reads) == 1 + flooded
        # a commit that changes a colour with more than one component
        after = index_counts(index)
        upkeep += max(count[old], count[colour], after[old], after[colour]) > 1
    assert_caches_match_rebuild(st, [connected])
    assert upkeep > 200, upkeep


def count_searches(monkeypatch):
    """The component floods of every index and the searches of every
    geometry's own components from now on, each as its arguments."""
    floods, searches = [], []
    flood, search = ComponentIndex._flood, geometry_module.components

    def counted_flood(self, *args):
        floods.append(args)
        return flood(self, *args)

    def counted_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(ComponentIndex, "_flood", counted_flood)
    monkeypatch.setattr(geometry_module, "components", counted_search)
    return floods, searches


@pytest.mark.parametrize(
    "params",
    [
        dict(seed=3, width=12, height=10, colours=4, flights=2, with_nonborder=True,
             with_compact=True),
        dict(seed=5, width=4, height=3, depth=3, dim=3, colours=5, flights=2, with_compact=True),
        dict(seed=1, width=1, height=1, colours=1, flights=0),
    ],
    ids=["2d", "3d", "one-cell"],
)
def test_a_grid_instance_builds_its_model_without_a_search(monkeypatch, params):
    # the built model colours every vertex 1, and a grid knows it is
    # connected, so the one class is one component labelled 1
    floods, searches = count_searches(monkeypatch)
    model = generate(**params).build()
    state = model.state
    index = state.component_index()
    assert (floods, searches) == ([], [])
    assert set(index.label.values()) == {1}
    assert index.component_masks(1) == {1: state.everyone}
    assert_index_matches_components(index, state.geometry, state.snapshot(), state.n)
    # the labels minted from here on are fresh ones, as after a flood
    rng = random.Random(params["seed"])
    for _ in range(60):
        v = rng.choice(state.order)
        model.assign(v, rng.randint(1, state.n))
        assert_index_matches_components(index, state.geometry, state.snapshot(), state.n)
    assert_caches_match_rebuild(state, [c for c, _ in model.entries])


def test_one_colour_over_a_facet_geometry_searches_only_when_it_must(monkeypatch):
    floods, searches = count_searches(monkeypatch)
    # connected: the geometry's components are searched once, and kept
    connected = facet_grid(4, 3, seed=2)
    state = ColourState(connected, 2)
    index = state.component_index()
    assert (len(floods), len(searches)) == (0, 1)
    assert_index_matches_components(index, connected, state.snapshot(), 2)
    state.set_all(dict.fromkeys(connected.vertices, 2))
    assert (len(floods), len(searches)) == (0, 1)
    assert_index_matches_components(index, connected, state.snapshot(), 2)
    # two components (a 2x2 block and a path of three) keep their floods
    split = Geometry(
        {0: [0, 1], 1: [0, 2], 2: [1, 3], 3: [2, 3], 4: [4], 5: [4, 5], 6: [5]},
        dict.fromkeys(range(6), 1), dict.fromkeys(range(7), 1), dim=2,
    )
    state = ColourState(split, 3)
    index = state.component_index()
    assert index_counts(index) == {1: 2, 2: 0, 3: 0}
    assert len(floods) == 2
    assert_index_matches_components(index, split, state.snapshot(), 3)


def test_a_state_without_colours_equals_one_coloured_1():
    for geometry in (grid(5, 4, dim=2), facet_grid(3, 2, 2, seed=1), grid(1, 1, dim=2)):
        plain = ColourState(geometry, 3)
        ones = ColourState(geometry, 3, colours=dict.fromkeys(geometry.vertices, 1))
        assert plain.snapshot() == ones.snapshot()
        assert list(plain.colours()) == list(ones.colours())
        assert plain.class_mask == ones.class_mask
        assert plain.unused_colours() == ones.unused_colours()


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


def probe_reads(state, connected, moves):
    """The vertices whose neighbour rows each exact probe of ``moves``
    reads, per move, each probe with a fresh split search."""
    geometry = state.geometry
    table = CountingAdjacency(geometry.adjacency())
    geometry.adjacency = lambda: table
    index = state.component_index()
    reads = []
    for v, c in moves:
        index.forget_splits()
        table.reads.clear()
        connected.probe_assign(v, c)
        reads.append(list(table.reads))
    return reads


def test_brick_wall_split_reads_do_not_grow_with_the_wall():
    # a brick wall's splits all reach the breadth-first loop, and its bricks
    # and mortar keep one shape at every size, so the most neighbour-table
    # reads an exact probe makes must not grow with the wall either
    most = {}
    for side in (32, 100):
        most[side] = max(map(len, probe_reads(*bench._bricks(side, seed=0))))
    assert most[32] == most[100] <= 33, most


@pytest.mark.parametrize("seed", range(3))
def test_brick_wall_split_reads_do_not_depend_on_facet_numbering(seed):
    # the same wall on the same grid, its facets numbered in a shuffled
    # order, reads the same rows in the same order as on grid()'s tables
    side = 20
    state, connected, moves = bench._bricks(side, seed=0)
    shuffled = ColourState(
        facet_grid(side, side, dim=2, seed=seed), 2, colours=state.snapshot()
    )
    expected = probe_reads(state, connected, moves)
    assert probe_reads(shuffled, ConnectedConstraint(shuffled, "=", 2), moves) == expected
