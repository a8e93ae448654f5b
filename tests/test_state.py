import hashlib
import random

import pytest

from oracles import (
    RANK_GEOMETRIES,
    assert_index_matches_components,
    index_counts,
    naive_border_mask,
    naive_components,
    random_colours,
)
from sectorsearch import generate
from sectorsearch.constraints import ConnectedConstraint
from sectorsearch.engine import Model
from sectorsearch.errors import InputError
from sectorsearch.geometry import Geometry, grid
from sectorsearch.state import (
    ColourState,
    ComponentIndex,
    Regions,
    class_components,
    grow_regions,
    stretches,
)


def path_state(colours, n=3):
    g = grid(len(colours), 1, dim=2)
    return ColourState(g, n, colours={i: c for i, c in enumerate(colours)})


def test_components_path():
    st = path_state([1, 1, 2, 1])
    comps = st.connected_components()
    as_sets = {(c.colour, tuple(sorted(c.vertices))) for c in comps}
    assert as_sets == {(1, (0, 1)), (2, (2,)), (1, (3,))}


def test_components_monochrome():
    geometry = grid(2, 2, dim=2)
    st = ColourState(geometry, 2)
    comps = st.connected_components()
    assert len(comps) == 1
    assert comps[0].border_area == 8
    assert comps[0].volume == 4


def test_components_diagonal():
    geometry = grid(2, 2, dim=2)
    st = ColourState(geometry, 2, colours={0: 1, 1: 2, 2: 2, 3: 1})
    assert len(st.connected_components()) == 4


def test_component_attributes_match_scratch():
    rng = random.Random(5)
    geometry = grid(3, 3, dim=2)
    for _ in range(20):
        st = ColourState(geometry, 3, colours={v: rng.randint(1, 3) for v in geometry.vertices})
        for comp in st.connected_components():
            assert comp.border_area == sum(st.border_area(v) for v in comp.vertices)
            assert comp.volume == len(comp.vertices)


def test_stretches_worked_example():
    spans = stretches([1, 1, 4, 4, 4, 4, 4, 4, 1, 1, 1, 2])
    assert spans == [(0, 1), (2, 7), (8, 10), (11, 11)]


def test_stretches_edges():
    assert stretches([7]) == [(0, 0)]
    assert stretches([1, 2, 1]) == [(0, 0), (1, 1), (2, 2)]
    assert stretches([]) == []


def test_stretches_match_path_components():
    rng = random.Random(9)
    for _ in range(30):
        length = rng.randint(1, 9)
        seq = [rng.randint(1, 3) for _ in range(length)]
        st = path_state(seq)
        assert len(stretches(seq)) == len(st.connected_components())


def test_assign_basics():
    st = path_state([1, 1, 2])
    st.assign(1, 2)
    assert st.colour(1) == 2
    st.assign(1, 2)  # re-assigning the current colour is allowed


def test_assign_errors():
    st = path_state([1, 1, 2])
    with pytest.raises(InputError):
        st.assign(0, 4)
    with pytest.raises(InputError):
        st.assign(0, 0)
    with pytest.raises(InputError, match="unknown vertex -1"):
        st.assign(-1, 1)


class _Listener:
    """A stub constraint logging the commits and rebuilds it hears."""

    def __init__(self, state, name, log, scope=None):
        self.state = state
        self.id = name
        self.log = log
        self._scope = scope

    def scope(self):
        return self._scope

    def commit_assign(self, v, old, new):
        self.log.append((self.id, v, old, new))

    def rebuild(self):
        self.log.append((self.id, "rebuild"))


def test_the_model_routes_commits_in_scope_in_entry_order():
    st = path_state([1, 1, 1, 1])
    log = []
    model = Model(st, [
        (_Listener(st, "a", log, (1, 2)), 1),
        (_Listener(st, "all", log), 1),
        (_Listener(st, "b", log, (2, 3, 2)), 1),  # vertex 2 listed twice
    ])
    model.assign(0, 2)
    model.assign(2, 2)
    model.assign(2, 2)  # no change, no notification
    model.assign(3, 3)
    model.assign(1, 3)
    model.set_all({0: 1, 1: 2, 2: 3, 3: 1})
    assert log == [
        ("all", 0, 1, 2),
        ("a", 2, 1, 2), ("all", 2, 1, 2), ("b", 2, 1, 2),
        ("all", 3, 1, 3), ("b", 3, 1, 3),
        ("a", 1, 1, 3), ("all", 1, 1, 3),
        ("a", "rebuild"), ("all", "rebuild"), ("b", "rebuild"),
    ]
    assert st.snapshot() == {0: 1, 1: 2, 2: 3, 3: 1}


def test_grow_regions_properties():
    rng = random.Random(3)
    geometry = grid(5, 4, dim=2)
    for k in (1, 2, 3, 5):
        colours = grow_regions(geometry, k, rng)
        assert set(colours) == set(geometry.vertices)
        assert set(colours.values()) == set(range(1, k + 1))
        st = ColourState(geometry, k, colours=colours)
        assert len(st.connected_components()) == k


def test_grow_regions_too_many():
    geometry = grid(2, 1, dim=2)
    with pytest.raises(InputError):
        grow_regions(geometry, 3, random.Random(0))


def test_components_agree_with_oracle():
    rng = random.Random(11)
    geometry = grid(3, 3, dim=2)
    for _ in range(25):
        colours = {v: rng.randint(1, 3) for v in geometry.vertices}
        st = ColourState(geometry, 3, colours=colours)
        mine = {frozenset(c.vertices) for c in st.connected_components()}
        theirs = {frozenset(vs) for _, vs in naive_components(geometry, colours)}
        assert mine == theirs


def _two_component_geometry():
    """Two components with interleaved ids, the one holding vertex 0 not
    the first built: a 2x2 block {2, 5, 7, 9} and a path 8-0-3."""
    edges = [(2, 5), (5, 9), (9, 7), (7, 2), (8, 0), (0, 3)]
    facets_of = {v: [100 + v] for v in (9, 7, 5, 2, 8, 3, 0)}
    for f, (v, w) in enumerate(edges):
        facets_of[v].append(f)
        facets_of[w].append(f)
    areas = {f: 1 for fs in facets_of.values() for f in fs}
    return Geometry(facets_of, areas, dict.fromkeys(facets_of, 1), 2)


GROW_CASES = {
    "20x20": (lambda: grid(20, 20, dim=2), (1, 2, 6, 13)),
    "80x80": (lambda: grid(80, 80, dim=2), (8,)),
    "8x8x4": (lambda: grid(8, 8, 4, dim=3), (3, 16)),
    "two-components": (_two_component_geometry, (2, 3, 7)),
}

#: every colouring and the next random draw after it, over seeds 0..3 for
#: each k: any rewrite of grow_regions must reproduce them draw for draw
GROW_DIGESTS = {
    "20x20": "a1b49b5ed737616fa13b4d926748a12a7cf99c131c7a106afa55a6cb954ad95c",
    "80x80": "cedcf1e7cc89383f87facc6db1bb0b743cda41116b18f34df7aa96dbab0bd240",
    "8x8x4": "faea25e54a4b8ae12224d31dc79823b5775af0039725c7c02890f5de76509609",
    "two-components": "d25f58571cef59d85cd660cf27f4c28297a41a05f17b002de3002357510e9297",
}


@pytest.mark.parametrize("name", sorted(GROW_CASES))
def test_grow_regions_pinned(name):
    build, ks = GROW_CASES[name]
    geometry = build()
    runs = []
    for k in ks:
        for seed in range(4):
            rng = random.Random(seed)
            colours = grow_regions(geometry, k, rng)
            runs.append((k, seed, sorted(colours.items()), rng.random()))
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == GROW_DIGESTS[name]


CACHED_TABLE_BUILDS = [
    lambda: grid(5, 4, dim=2), lambda: grid(3, 3, 2, dim=3), _two_component_geometry,
]


@pytest.mark.parametrize("build", CACHED_TABLE_BUILDS)
def test_geometry_components_are_cached_sorted_tuples(build):
    geometry = build()
    expected = tuple(
        sorted(tuple(sorted(comp)) for comp in class_components(geometry, set(geometry.vertices)))
    )
    comps = geometry.components()
    assert comps == expected
    assert geometry.components() is comps
    assert geometry.order() == tuple(sorted(geometry.vertices))
    assert geometry.order() is geometry.order()


def test_grow_regions_more_components_than_regions():
    with pytest.raises(InputError, match="geometry has 2 components, more than 1 regions"):
        grow_regions(_two_component_geometry(), 1, random.Random(0))


def _partition(index):
    """The vertex sets of an index's labels."""
    members = {}
    for v, lab in index.label.items():
        members.setdefault(lab, set()).add(v)
    return {frozenset(vs) for vs in members.values()}


def _check_region_index_walk(st, rng, walk=200):
    """The index of a region colouring agrees with the general rebuild of
    the same colouring, and with DFS components after every one of
    ``walk`` seeded commits."""
    geometry = st.geometry
    index = st.component_index()
    general = ComponentIndex(geometry, st.snapshot(), st.n, list(st.class_mask))
    assert _partition(index) == _partition(general)
    assert index_counts(index) == index_counts(general)
    assert_index_matches_components(index, geometry, st.snapshot(), st.n)
    for _ in range(walk):
        st.assign(rng.choice(st.order), rng.randint(1, st.n))
        assert_index_matches_components(index, geometry, st.snapshot(), st.n)


@pytest.mark.parametrize("name", sorted(GROW_CASES))
def test_region_index_matches_the_general_rebuild(name):
    build, ks = GROW_CASES[name]
    geometry = build()
    for k in ks:
        st = ColourState(geometry, k)
        st.component_index()
        for seed in range(4):
            rng = random.Random(seed)
            st.set_all(grow_regions(geometry, k, rng))
            _check_region_index_walk(st, rng)


@pytest.mark.parametrize("seed", range(4))
def test_region_index_after_hard_init_with_empty_colours(seed):
    # three regions over five colours: colours 4 and 5 start empty
    st = ColourState(grid(6, 5, dim=2), 5)
    connected = ConnectedConstraint(st, "=", 3)
    model = Model(st, [(connected, 1)])
    rng = random.Random(seed)
    connected.hard_init(model, rng)
    assert st.unused_colours() == [4, 5]
    assert connected.violation() == 0
    _check_region_index_walk(st, rng)


def _observed(model):
    """Everything a set_all may change, copied."""
    st = model.state
    index = st.component_index()
    return (
        st.snapshot(),
        list(st.class_mask),
        dict(index.label),
        {c: dict(index.component_masks(c)) for c in range(1, st.n + 1)},
        dict(model.constraint("connected").count),
        [(c.violation(), c.conflicts()) for c, _ in model.entries],
    )


def _bad_regions(st, rng):
    """Region colourings ``set_all`` refuses, made by ``grow_regions`` as
    every region colouring is, each with the error it raises: one region
    more than the colours, and regions over a grid one row short."""
    geometry = st.geometry
    extra = grow_regions(geometry, st.n + 1, rng)
    v = next(v for v in geometry.vertices if extra[v] > st.n)
    short = grow_regions(grid(7, 5, dim=2), st.n, rng)
    w = next(v for v in geometry.vertices if v not in short)
    return [
        (extra, f"vertex {v}: colour {st.n + 1} outside 1..{st.n}"),
        (short, f"vertex {w} has no colour"),
    ]


@pytest.mark.parametrize("regions", [False, True], ids=["general", "regions"])
def test_failed_set_all_changes_nothing(regions):
    instance = generate(seed=4, width=7, height=6, colours=4, flights=3,
                        with_compact=True, with_nonborder=True)
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(mode="A", threshold=0)
    model = instance.build()
    st = model.state
    rng = random.Random(2)
    grown = grow_regions(st.geometry, st.n, rng)
    model.set_all(grown if regions else dict(grown))
    for _ in range(30):
        model.assign(rng.choice(st.order), rng.randint(1, st.n))
    before = _observed(model)
    if regions:
        refused = _bad_regions(st, rng)
    else:
        last = st.order[-1]
        good = grow_regions(st.geometry, st.n, rng)
        missing = {v: c for v, c in good.items() if v != last}
        refused = [
            (missing, f"vertex {last} has no colour"),
            ({**good, last: st.n + 1}, f"vertex {last}: colour {st.n + 1} outside 1..{st.n}"),
            ({**good, last: 0}, f"vertex {last}: colour 0 outside 1..{st.n}"),
            ({**good, last: 1.0}, f"vertex {last}: colour 1.0 outside 1..{st.n}"),
            ({**good, last: "1"}, f"vertex {last}: colour '1' outside 1..{st.n}"),
        ]
    for bad, message in refused:
        assert isinstance(bad, Regions) == regions
        with pytest.raises(InputError, match=message):
            model.set_all(bad)
        assert _observed(model) == before


def test_only_grow_regions_makes_a_regions_colouring():
    """``set_all`` takes a Regions colouring's classes to be connected
    without a search.  Colour 1 of this one has two components; were it
    accepted, the index would keep one mask for colour 1, where a flood
    of the same colours finds two."""
    st = ColourState(grid(3, 1, dim=2), 2)
    index = st.component_index()
    with pytest.raises(TypeError, match="only grow_regions"):
        Regions({0: 1, 1: 2, 2: 1}, st.geometry)
    grown = grow_regions(st.geometry, 2, random.Random(0))
    before = dict(grown)
    for write in (
        lambda r: r.__setitem__(0, 2),
        lambda r: r.__delitem__(0),
        lambda r: r.update({0: 2}),
        lambda r: r.setdefault(0, 2),
        lambda r: r.pop(0),
        lambda r: r.popitem(),
        lambda r: r.clear(),
    ):
        with pytest.raises(TypeError, match="cannot be changed"):
            write(grown)
    with pytest.raises(TypeError, match="cannot be changed"):
        grown |= {0: 2}
    assert grown == before
    st.set_all({0: 1, 1: 2, 2: 1})
    assert index_counts(index) == {1: 2, 2: 1}
    assert_index_matches_components(index, st.geometry, st.snapshot(), st.n)


@pytest.mark.parametrize(
    "grown_on, state_on",
    [((6, 7), (7, 6)), ((2, 2), (4, 1))],
    ids=["6x7-on-7x6", "2x2-on-4x1"],
)
def test_regions_grown_on_another_geometry_are_flooded(grown_on, state_on):
    """Regions are connected on the geometry they were grown on.  Set on a
    state over another geometry with the same vertex ids, they are an
    ordinary colouring, whose split classes the index must count."""
    st = ColourState(grid(*state_on, dim=2), 3)
    index = st.component_index()
    other = grid(*grown_on, dim=2)
    assert set(other.vertices) == set(st.geometry.vertices)
    split = 0
    for seed in range(8):
        regions = grow_regions(other, 3, random.Random(seed))
        st.set_all(regions)
        assert_index_matches_components(index, st.geometry, st.snapshot(), st.n)
        split += max(index_counts(index).values()) > 1
    assert split, "no seed splits a region on the state's geometry"


EDGE_MASK_BUILDS = {
    **dict(zip(("5x4", "3x3x2", "two-components"), CACHED_TABLE_BUILDS)), **RANK_GEOMETRIES,
}


@pytest.mark.parametrize("name", sorted(EDGE_MASK_BUILDS))
def test_geometry_neighbour_rows_are_increasing(name):
    # every geometry, facet-built or a grid, keeps each vertex's
    # neighbours once, increasing, with its facet areas aligned
    geometry = EDGE_MASK_BUILDS[name]()
    adjacency = geometry.adjacency()
    assert set(adjacency) == set(geometry.vertices)
    for v in geometry.vertices:
        row = adjacency[v]
        assert type(row) is tuple and list(row) == sorted(set(row))
        assert v not in row and all(v in adjacency[w] for w in row)
        assert len(geometry.facet_areas()[v]) == len(row)
    assert geometry.adjacency() is adjacency


@pytest.mark.parametrize("name", sorted(EDGE_MASK_BUILDS))
def test_geometry_edge_masks_are_cached_and_hold_every_edge_once(name):
    geometry = EDGE_MASK_BUILDS[name]()
    table = geometry.edge_masks()
    assert geometry.edge_masks() is table
    order = geometry.order()
    rank = geometry.rank()
    assert [rank[v] for v in order] == list(range(len(order)))
    listed = list(table.sparse)
    for d, groups in table.dense:
        for a, mask in groups:
            for r in range(len(order)):
                if mask >> r & 1:
                    listed.append((order[r], order[r + d], a))
    assert sorted(listed) == sorted(
        (v, w, geometry.edge_areas(v)[w]) for v, w in geometry.edges()
    )
    assert table.outside == sum(1 << rank[v] for v in geometry.border_areas)


def test_partly_permuted_grid_has_dense_and_sparse_edges():
    table = RANK_GEOMETRIES["30x30-partly-permuted"]().edge_masks()
    assert table.dense and table.sparse
    assert not RANK_GEOMETRIES["80x80-permuted"]().edge_masks().dense


@pytest.mark.parametrize("name", sorted(RANK_GEOMETRIES))
def test_border_mask_matches_a_neighbour_scan(name):
    geometry = RANK_GEOMETRIES[name]()
    rng = random.Random(len(name))
    st = ColourState(geometry, 5)
    assert st.border_mask() == 0
    for colours in (random_colours(rng, geometry, 5), grow_regions(geometry, 5, rng)):
        st.set_all(colours)
        assert st.border_mask() == naive_border_mask(geometry, colours)
    for _ in range(20):
        st.assign(rng.choice(st.order), rng.randint(1, 5))
        assert st.border_mask() == naive_border_mask(geometry, st.snapshot())


def test_many_colours_build_their_class_masks():
    geometry = grid(30, 20, dim=2)
    n = 300
    rng = random.Random(3)
    colours = {v: rng.randint(1, n) for v in geometry.vertices}
    colours[0], colours[1] = n, 256  # above one byte
    st = ColourState(geometry, n, colours)
    for c in range(n + 1):
        ranks = [r for r, v in enumerate(st.order) if colours[v] == c]
        assert st.class_mask[c] == sum(1 << r for r in ranks)
        assert st.class_mask[c].bit_count() == len(ranks)
    assert n not in st.unused_colours() and 256 not in st.unused_colours()


def test_a_colours_view_follows_set_all():
    geometry = grid(5, 4, dim=2)
    st = ColourState(geometry, 3)
    index = st.component_index()
    view = st.colours()
    rng = random.Random(5)
    for colours in (random_colours(rng, geometry, 3), grow_regions(geometry, 3, rng)):
        st.set_all(colours)
        assert dict(view) == colours
        assert index._colour is st._colour
        assert_index_matches_components(index, geometry, colours, st.n)


def test_colours_follow_the_geometry_vertex_order():
    geometry = RANK_GEOMETRIES["mixed-areas"]()
    assert list(geometry.vertices) != sorted(geometry.vertices)
    colours = dict(sorted(random_colours(random.Random(4), geometry, 6).items(), reverse=True))
    st = ColourState(geometry, 6, colours)
    assert list(st.colours()) == list(geometry.vertices)
    st.set_all(colours)
    assert list(st.colours()) == list(geometry.vertices)
