import hashlib
import random

import pytest

from oracles import assert_index_matches_components, naive_components
from sectorsearch import generate
from sectorsearch.constraints import ConnectedConstraint
from sectorsearch.engine import Model
from sectorsearch.errors import InputError
from sectorsearch.geometry import Geometry, grid
from sectorsearch.state import (
    ColourState,
    ComponentIndex,
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


@pytest.mark.parametrize("build", CACHED_TABLE_BUILDS)
def test_geometry_ascending_adjacency_is_cached_and_sorted(build):
    geometry = build()
    table = geometry.ascending_adjacency()
    assert set(table) == set(geometry.vertices)
    for v in geometry.vertices:
        assert table[v] == tuple(sorted(geometry.adjacent(v)))
    assert geometry.ascending_adjacency() is table


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
    general = ComponentIndex(geometry, st.snapshot(), st.n)
    assert _partition(index) == _partition(general)
    assert index.count == general.count
    assert (index.total, index.excess) == (general.total, general.excess)
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
            st.set_all(grow_regions(geometry, k, rng), regions=True)
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
        list(st.class_size),
        dict(index.label),
        dict(index.size),
        dict(index.count),
        index.total,
        index.excess,
        [(c.violation(), c.conflicts()) for c, _ in model.entries],
    )


@pytest.mark.parametrize("regions", [False, True], ids=["general", "regions"])
def test_failed_set_all_changes_nothing(regions):
    instance = generate(seed=4, width=7, height=6, colours=4, flights=3,
                        with_compact=True, with_nonborder=True)
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(mode="A", threshold=0)
    model = instance.build()
    st = model.state
    path = {"regions": True} if regions else {}
    rng = random.Random(2)
    model.set_all(grow_regions(st.geometry, st.n, rng), **path)
    for _ in range(30):
        model.assign(rng.choice(st.order), rng.randint(1, st.n))
    before = _observed(model)
    last = st.order[-1]
    good = grow_regions(st.geometry, st.n, rng)
    missing = {v: c for v, c in good.items() if v != last}
    for bad, message in (
        (missing, f"vertex {last} has no colour"),
        ({**good, last: st.n + 1}, f"vertex {last}: colour {st.n + 1} outside 1..{st.n}"),
        ({**good, last: 0}, f"vertex {last}: colour 0 outside 1..{st.n}"),
    ):
        with pytest.raises(InputError, match=message):
            model.set_all(bad, **path)
        assert _observed(model) == before
