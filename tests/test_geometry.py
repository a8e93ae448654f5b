import pytest

from sectorsearch.errors import InputError
from sectorsearch.geometry import (
    BOTTOM,
    BOTTOM_FACET,
    Geometry,
    OrderedPath,
    envelop,
    grid,
    grid_vertices,
)


def test_adjacent_on_path():
    g = grid(3, 1, dim=2)
    assert g.adjacent(1) == {0, 2}
    assert g.adjacent(0) == {1}


def test_adjacent_isolated_vertex():
    g = grid(1, 1, dim=2)
    assert g.adjacent(0) == frozenset()


def test_adjacent_grid_corner():
    g = grid(2, 2, dim=2)
    assert g.adjacent(0) == {1, 2}


def test_adjacent_unknown_vertex():
    g = grid(2, 2, dim=2)
    with pytest.raises(InputError):
        g.adjacent(99)


def test_shared_facet_unit_grid():
    g = grid(2, 2, dim=2)
    f = g.shared_facet(0, 1)
    assert g.area(0, f) == 1
    assert g.owners(f) == (0, 1)


def test_shared_facet_pair():
    g = grid(2, 1, dim=2)
    f = g.shared_facet(0, 1)
    assert f in g.facets_of(0) and f in g.facets_of(1)


def test_shared_facet_non_adjacent():
    g = grid(2, 2, dim=2)
    with pytest.raises(InputError):
        g.shared_facet(0, 3)


def test_border_vertices_2x2():
    assert grid(2, 2, dim=2).border_vertices() == {0, 1, 2, 3}


def test_border_vertices_3x3_excludes_centre():
    g = grid(3, 3, dim=2)
    assert g.border_vertices() == frozenset(range(9)) - {4}


def test_border_vertices_single():
    assert grid(1, 1, dim=2).border_vertices() == {0}


def test_envelop_single_vertex():
    env = envelop(grid(1, 1, dim=2))
    assert env.adjacent(BOTTOM) == {0}
    assert env.adjacent(0) == {BOTTOM}
    assert env.facets_of(BOTTOM) == {BOTTOM_FACET}


def test_envelop_degrees():
    assert len(envelop(grid(2, 2, dim=2)).adjacent(BOTTOM)) == 4
    assert len(envelop(grid(3, 3, dim=2)).adjacent(BOTTOM)) == 8


def test_envelop_twice_rejected():
    env = envelop(grid(2, 2, dim=2))
    with pytest.raises(InputError):
        envelop(env)


def test_grid_counts():
    g = grid(1, 1, 1)  # 3D by default
    assert len(g.vertices) == 1
    assert len(list(g.edges())) == 0
    assert len(g.facets) == 6

    g2 = grid(2, 2, 1, dim=2)
    assert len(g2.vertices) == 4
    assert len(list(g2.edges())) == 4

    g3 = grid(2, 2, 2)
    assert len(g3.vertices) == 8
    assert len(list(g3.edges())) == 12


def test_grid_zero_dimension():
    with pytest.raises(InputError):
        grid(0, 2)


def test_grid_2d_needs_flat_depth():
    with pytest.raises(InputError):
        grid(2, 2, 2, dim=2)


@pytest.mark.parametrize("args", [(0, 2, 1, 2), (2, 2, 2, 2), (2, 2, 1, 4)])
def test_grid_vertices_rejects_what_grid_rejects(args):
    w, h, d, dim = args
    with pytest.raises(InputError):
        grid(w, h, d, dim=dim)
    with pytest.raises(InputError):
        grid_vertices(w, h, d, dim)


@pytest.mark.parametrize("dims", [(1, 1, 1, 2), (3, 4, 1, 2), (2, 3, 1, 3), (3, 2, 4, 3)])
def test_grid_vertices_are_the_grid_vertices(dims):
    w, h, d, dim = dims
    assert list(grid_vertices(w, h, d, dim)) == sorted(grid(w, h, d, dim=dim).vertices)


def test_grid_facet_numbering():
    # per cell and axis: the low border facet, then the facet towards the
    # next cell or the high border facet; seeded searches depend on it
    g = grid(2, 1, dim=2)
    assert g.facets_of(0) == {0, 1, 2, 3}
    assert g.facets_of(1) == {1, 4, 5, 6}
    assert g.shared_facet(0, 1) == 1
    assert g.border_facets(1) == {4, 5, 6}


@pytest.mark.parametrize("dims", [(2, 2, 1, 2), (3, 4, 1, 2), (2, 2, 2, 3), (3, 2, 2, 3)])
def test_every_edge_has_one_shared_facet(dims):
    w, h, d, dim = dims
    g = grid(w, h, d, dim=dim)
    for v, u in g.edges():
        common = g.facets_of(v) & g.facets_of(u)
        assert len(common) == 1


@pytest.mark.parametrize("w,h", [(2, 2), (3, 5), (4, 4), (6, 2)])
def test_border_count_formula_2d(w, h):
    g = grid(w, h, dim=2)
    assert len(g.border_vertices()) == 2 * w + 2 * h - 4


def test_facet_owner_counts():
    g = grid(3, 3, dim=2)
    for f in g.facets:
        assert len(g.owners(f)) in (1, 2)
    for v in g.vertices:
        for f in g.border_facets(v):
            assert g.owners(f) == (v,)


def test_enveloped_edge_areas():
    env = envelop(grid(2, 2, dim=2))
    assert env.edge_area(0, 1) == 1
    assert env.edge_area(0, BOTTOM) == 2  # two outer sides
    assert env.outside_area() == 8


def test_scaled_areas_and_volumes():
    g = grid(2, 2, dim=2, cell_area=3, cell_volume=5)
    assert g.area(0, g.shared_facet(0, 1)) == 3
    assert g.volume(0) == 5
    env = envelop(g)
    assert env.border_areas[0] == 6


def test_geometry_validation_rejects_bad_data():
    with pytest.raises(InputError):
        Geometry({0: [1], 1: [1], 2: [1]}, {1: 1}, {0: 1, 1: 1, 2: 1}, 2)
    with pytest.raises(InputError):
        Geometry({0: [1], 1: [1]}, {1: 0}, {0: 1, 1: 1}, 2)
    with pytest.raises(InputError):
        Geometry({0: [1], 1: [1]}, {1: 1}, {0: 0, 1: 1}, 2)


def test_ordered_path_navigation():
    g = grid(3, 1, dim=2)
    p = OrderedPath([0, 1, 2], g)
    assert p.pred(0) == BOTTOM
    assert p.succ(2) == BOTTOM
    assert p.pred(1) == 0 and p.succ(1) == 2
    assert p.position(2) == 2
    assert len(p) == 5
    assert list(p) == [BOTTOM, 0, 1, 2, BOTTOM]
    assert 1 in p and 7 not in p


def test_ordered_path_validation():
    g = grid(3, 1, dim=2)
    with pytest.raises(InputError):
        OrderedPath([0, 2], g)  # not adjacent
    with pytest.raises(InputError):
        OrderedPath([0, 1, 0], g)  # revisit
