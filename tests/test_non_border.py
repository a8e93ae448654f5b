import random

from oracles import all_colourings, monotone_path, naive_nonborder_violation, random_colours
from sectorsearch.constraints import NonBorderConstraint, non_border_check
from sectorsearch.geometry import OrderedPath, grid
from sectorsearch.state import ColourState


def top_row_setup(colour_map):
    g = grid(2, 2, dim=2)
    st = ColourState(g, 2, colours=colour_map)
    path = OrderedPath([0, 1], g)
    return st, NonBorderConstraint(st, path)


def test_one_dimensional_always_satisfied():
    g = grid(5, 1, dim=2)
    path = OrderedPath([0, 1, 2, 3, 4], g)
    rng = random.Random(1)
    for _ in range(20):
        st = ColourState(g, 3, colours={v: rng.randint(1, 3) for v in g.vertices})
        c = NonBorderConstraint(st, path)
        assert c.check()
        assert c.violation() == 0


def test_top_row_examples():
    st, c = top_row_setup({0: 1, 1: 1, 2: 1, 3: 1})
    assert c.check() and c.violation() == 0

    st2, c2 = top_row_setup({0: 1, 1: 1, 2: 1, 3: 2})
    assert not c2.check()
    assert c2.violation() == 1
    assert c2.var_violation(1) == 1
    assert c2.var_violation(0) == 0
    assert c2.var_violation(3) == 0  # off-path vertices carry no violation


def test_both_neighbours_mismatched():
    _, c = top_row_setup({0: 1, 1: 1, 2: 2, 3: 2})
    assert c.violation() == 2


def test_probe_off_path_vertex():
    st, c = top_row_setup({0: 1, 1: 1, 2: 1, 3: 2})
    assert c.probe_assign(3, 1) == -1
    assert c.probe_assign(3, 2) == 0


def test_probe_path_vertex():
    st, c = top_row_setup({0: 1, 1: 1, 2: 1, 3: 2})
    # b matches below-b afterwards, but a's off-path neighbour stays equal
    assert c.probe_assign(1, 2) == -1


def test_probe_matches_scratch():
    rng = random.Random(101)
    g = grid(3, 3, dim=2)
    path_vertices = monotone_path(rng, 3, 3)
    path = OrderedPath(path_vertices, g)
    for _ in range(300):
        st = ColourState(g, 3, colours=random_colours(rng, g, 3))
        c = NonBorderConstraint(st, path)
        v = rng.choice(sorted(g.vertices))
        colour = rng.randint(1, 3)
        before = naive_nonborder_violation(g, st.snapshot(), path_vertices)
        after_colours = st.snapshot()
        after_colours[v] = colour
        after = naive_nonborder_violation(g, after_colours, path_vertices)
        assert c.probe_assign(v, colour) == after - before


def test_commit_matches_scratch():
    rng = random.Random(103)
    g = grid(3, 3, dim=2)
    path_vertices = monotone_path(rng, 3, 3)
    path = OrderedPath(path_vertices, g)
    st = ColourState(g, 3, colours=random_colours(rng, g, 3))
    c = NonBorderConstraint(st, path)
    st.register(c)
    for _ in range(200):
        v = rng.choice(sorted(g.vertices))
        st.assign(v, rng.randint(1, 3))
        assert c.violation() == naive_nonborder_violation(g, st.snapshot(), path_vertices)
        assert (c.violation() == 0) == c.check()


def test_violation_zero_iff_check_exhaustive():
    g = grid(3, 2, dim=2)
    path = OrderedPath([0, 1, 2], g)
    st = ColourState(g, 2)
    c = NonBorderConstraint(st, path)
    st.register(c)
    for colouring in all_colourings(g.vertices, 2):
        st.set_all(colouring)
        assert (c.violation() == 0) == non_border_check(st, path)
