import pytest

from sectorsearch.errors import InputError
from sectorsearch.geometry import Geometry, OrderedPath, grid, grid_vertices


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
    assert g.edge_areas(0)[1] == 1
    assert g.edge_areas(1)[0] == 1


def test_border_vertices_2x2():
    assert set(grid(2, 2, dim=2).border_areas) == {0, 1, 2, 3}


def test_border_vertices_3x3_excludes_centre():
    g = grid(3, 3, dim=2)
    assert set(g.border_areas) == set(range(9)) - {4}
    assert g.border_areas == {0: 2, 2: 2, 6: 2, 8: 2, 1: 1, 3: 1, 5: 1, 7: 1}


def test_facet_owner_counts():
    # every facet of a flat grid cell is shared with one neighbour (an
    # edge) or owned by the cell alone (border area), never both or neither
    g = grid(3, 3, dim=2)
    for v in g.vertices:
        assert len(g.adjacent(v)) + g.border_areas.get(v, 0) == 4
    shared = sum(len(g.adjacent(v)) for v in g.vertices) // 2
    assert shared + sum(g.border_areas.values()) == 2 * 3 * 4


def test_border_vertices_single():
    assert set(grid(1, 1, dim=2).border_areas) == {0}


def test_envelop_single_vertex():
    # a lone cell has no neighbour: all four sides face the outside,
    # which is its border area rather than an enveloping vertex
    g = grid(1, 1, dim=2)
    assert g.border_areas == {0: 4}
    assert g.adjacent(0) == frozenset()
    assert g.edge_areas(0) == {}
    assert g.outside_area() == 4


def test_grid_counts():
    g = grid(1, 1, 1)  # 3D by default
    assert len(g.vertices) == 1
    assert len(list(g.edges())) == 0
    assert g.border_areas == {0: 6}

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


@pytest.mark.parametrize("w,h", [(2, 2), (3, 5), (4, 4), (6, 2)])
def test_border_count_formula_2d(w, h):
    g = grid(w, h, dim=2)
    assert len(g.border_areas) == 2 * w + 2 * h - 4


def test_edge_area_and_outside_area():
    g = grid(2, 2, dim=2)
    assert g.edge_areas(0)[1] == 1
    assert g.border_areas[0] == 2  # two outer sides
    assert g.outside_area() == 8


def test_scaled_areas_and_volumes():
    g = grid(2, 2, dim=2, cell_area=3, cell_volume=5)
    assert g.edge_areas(0) == {1: 3, 2: 3}
    assert g.volume(0) == 5
    assert g.border_areas[0] == 6


def test_unequal_areas_attach_to_their_pairs():
    # three cells in a row, 0 | 1 | 2, every facet with its own area;
    # cell 0 has two border facets, cell 1 one, cell 2 one
    g = Geometry(
        {0: [10, 11, 1], 1: [1, 2, 12], 2: [2, 13]},
        {1: 2, 2: 3, 10: 5, 11: 7, 12: 11, 13: 13},
        {0: 1, 1: 4, 2: 9},
        2,
    )
    assert g.edge_areas(0) == {1: 2}
    assert g.edge_areas(1) == {0: 2, 2: 3}
    assert g.edge_areas(2) == {1: 3}
    assert g.border_areas == {0: 12, 1: 11, 2: 13}
    assert [g.volume(v) for v in range(3)] == [1, 4, 9]
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.edge_areas(2)[1] == 3
    assert g.outside_area() == 36


def test_accessors_return_stored_objects():
    g = grid(3, 3, dim=2)
    for v in (0, 4):
        assert g.adjacent(v) is g.adjacent(v)
        assert g.edge_areas(v) is g.edge_areas(v)


def test_pair_sharing_two_facets_rejected():
    with pytest.raises(InputError, match="vertices 0 and 1 share facets 1 and 2"):
        Geometry({0: [1, 2], 1: [1, 2]}, {1: 1, 2: 1}, {0: 1, 1: 1}, 2)


def test_facet_without_area_rejected():
    with pytest.raises(InputError, match="facet 2 has no area"):
        Geometry({0: [1, 2], 1: [1]}, {1: 1}, {0: 1, 1: 1}, 2)


@pytest.mark.parametrize("v", [-1, 1.5, "0"])
def test_bad_vertex_id_rejected(v):
    with pytest.raises(InputError, match="vertex ids must be non-negative integers"):
        Geometry({v: [1]}, {1: 1}, {v: 1}, 2)


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
    assert p.interior == (0, 1, 2)
    assert p == OrderedPath((0, 1, 2))
    assert p != OrderedPath([2, 1, 0], g)


def test_ordered_path_validation():
    g = grid(3, 1, dim=2)
    with pytest.raises(InputError):
        OrderedPath([0, 2], g)  # not adjacent
    with pytest.raises(InputError):
        OrderedPath([0, 1, 0], g)  # revisit
