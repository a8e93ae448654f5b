import random

import pytest

from oracles import naive_components
from sectorsearch.errors import InputError
from sectorsearch.geometry import BOTTOM, envelop, grid
from sectorsearch.state import ColourState, grow_regions, stretches


def path_state(colours, n=3):
    g = grid(len(colours), 1, dim=2)
    env = envelop(g)
    return ColourState(env, n, colours={i: c for i, c in enumerate(colours)})


def test_colour_graph_edges_path():
    st = path_state([1, 1, 2])
    assert st.colour_graph_edges() == {(0, 1)}


def test_colour_graph_edges_monochrome():
    env = envelop(grid(2, 2, dim=2))
    st = ColourState(env, 2)
    assert st.colour_graph_edges() == set(env.base.edges())


def test_colour_graph_edges_proper_colouring():
    st = path_state([1, 2, 1])
    assert st.colour_graph_edges() == set()


def test_components_path():
    st = path_state([1, 1, 2, 1])
    comps = st.connected_components()
    as_sets = {(c.colour, tuple(sorted(c.vertices))) for c in comps}
    assert as_sets == {(1, (0, 1)), (2, (2,)), (1, (3,))}


def test_components_monochrome():
    env = envelop(grid(2, 2, dim=2))
    st = ColourState(env, 2)
    comps = st.connected_components()
    assert len(comps) == 1
    assert comps[0].border_area == 8
    assert comps[0].volume == 4


def test_components_diagonal():
    env = envelop(grid(2, 2, dim=2))
    st = ColourState(env, 2, colours={0: 1, 1: 2, 2: 2, 3: 1})
    assert len(st.connected_components()) == 4


def test_component_attributes_match_scratch():
    rng = random.Random(5)
    env = envelop(grid(3, 3, dim=2))
    for _ in range(20):
        st = ColourState(env, 3, colours={v: rng.randint(1, 3) for v in env.vertices})
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
    with pytest.raises(InputError):
        st.assign(BOTTOM, 1)


def test_bottom_colour_reserved():
    st = path_state([1, 1, 2])
    assert st.colour(BOTTOM) == 0


def test_grow_regions_properties():
    rng = random.Random(3)
    env = envelop(grid(5, 4, dim=2))
    for k in (1, 2, 3, 5):
        colours = grow_regions(env, k, rng)
        assert set(colours) == set(env.vertices)
        assert set(colours.values()) == set(range(1, k + 1))
        st = ColourState(env, k, colours=colours)
        assert len(st.connected_components()) == k


def test_grow_regions_too_many():
    env = envelop(grid(2, 1, dim=2))
    with pytest.raises(InputError):
        grow_regions(env, 3, random.Random(0))


def test_components_agree_with_oracle():
    rng = random.Random(11)
    env = envelop(grid(3, 3, dim=2))
    for _ in range(25):
        colours = {v: rng.randint(1, 3) for v in env.vertices}
        st = ColourState(env, 3, colours=colours)
        mine = {frozenset(c.vertices) for c in st.connected_components()}
        theirs = {frozenset(vs) for _, vs in naive_components(env.base, colours)}
        assert mine == theirs
