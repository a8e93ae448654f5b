import math
import random

import pytest

from oracles import (
    RANK_GEOMETRIES,
    all_colourings,
    literal_neighbour_delta,
    naive_compact_a_violation,
    naive_compact_b_total,
    naive_compact_b_violation,
    random_colours,
    random_geometry,
)
from sectorsearch.constraints import CompactConstraint, sphere_surface
from sectorsearch.engine import Model
from sectorsearch.errors import InputError
from sectorsearch.geometry import grid
from sectorsearch.state import ColourState, grow_regions


def square_state(colours, n=2, side=2):
    geometry = grid(side, side, dim=2)
    return ColourState(geometry, n, colours={i: c for i, c in enumerate(colours)})


def test_border_area_examples():
    st = square_state([1, 1, 1, 1])
    c = CompactConstraint(st, threshold=8)
    assert all(c.border_cache[v] == 2 for v in range(4))

    st9 = square_state([1] * 9, side=3)
    c9 = CompactConstraint(st9, threshold=12)
    assert c9.border_cache[4] == 0  # interior cell

    st2 = square_state([1, 2, 2, 2])
    c2 = CompactConstraint(st2, threshold=8)
    assert c2.border_cache[0] == 4  # two outer sides plus two colour borders


def test_sphere_surface_values():
    assert sphere_surface(0, 3) == 0
    assert sphere_surface(0, 2) == 0
    assert math.isclose(sphere_surface(math.pi / 6, 3), math.pi, rel_tol=1e-12)
    assert math.isclose(sphere_surface(math.pi, 2), 2 * math.pi, rel_tol=1e-12)
    with pytest.raises(InputError):
        sphere_surface(-1, 3)
    with pytest.raises(InputError):
        sphere_surface(1, 4)


def test_mode_b_violation_examples():
    st = square_state([1, 1, 1, 1])
    assert CompactConstraint(st, threshold=8, mode="B").violation() == 0
    assert CompactConstraint(st, threshold=6, mode="B").violation() == 2


def test_mode_a_single_cube():
    geometry = grid(1, 1, 1)  # one 3D cell: sigma 6, nu 1
    st = ColourState(geometry, 1)
    threshold = math.ceil(6 - sphere_surface(1, 3))
    c = CompactConstraint(st, threshold=threshold, mode="A")
    assert c.violation() == 0
    tight = CompactConstraint(st, threshold=0, mode="A")
    assert math.isclose(tight.violation(), 6 - sphere_surface(1, 3), rel_tol=1e-12)


def test_var_violation_weights():
    st9 = square_state([1] * 9, side=3)
    c = CompactConstraint(st9, threshold=12, weight_fn="square")
    assert c.var_violation(4) == 0
    st = square_state([1, 1, 1, 1])
    assert CompactConstraint(st, threshold=8, weight_fn="square").var_violation(0) == 4
    assert CompactConstraint(st, threshold=8).var_violation(0) == 2


def test_neighbour_delta_cases():
    st = square_state([1, 2, 1, 1])
    geometry, colours = st.geometry, st.colours()
    # (w, new colour of vertex 0, change of Border(w))
    cases = [
        (1, 2, -1),  # w joins v's new colour side
        (2, 1, 0),  # no-op move
        (2, 2, +1),  # same-coloured pair separates
    ]
    for w, new_colour, expected in cases:
        assert literal_neighbour_delta(geometry, colours, w, 0, new_colour) == expected


def test_mode_b_probe_example():
    st = square_state([1, 1, 1, 1])
    c = CompactConstraint(st, threshold=0, mode="B")
    # two interior facets become borders, counted once each
    assert c.probe_assign(0, 2) == 2.0
    assert c.probe_assign(0, 1) == 0.0


def test_mode_b_probe_matches_scratch():
    rng = random.Random(41)
    for weight in ("identity", "square"):
        for _ in range(200):
            geometry = random_geometry(rng)
            n = 3
            st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
            t = rng.randint(0, 30)
            c = CompactConstraint(st, threshold=t, mode="B", weight_fn=weight)
            v = rng.choice(sorted(geometry.vertices))
            colour = rng.randint(1, n)
            before = naive_compact_b_violation(geometry, st.snapshot(), t, weight)
            after_colours = st.snapshot()
            after_colours[v] = colour
            after = naive_compact_b_violation(geometry, after_colours, t, weight)
            assert abs(c.probe_assign(v, colour) - (after - before)) < 1e-9


def test_mode_a_exact_probe_matches_scratch():
    rng = random.Random(43)
    for _ in range(100):
        geometry = random_geometry(rng)
        n = 2
        st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
        t = rng.randint(0, 10)
        c = CompactConstraint(st, threshold=t, mode="A", probe="exact")
        v = rng.choice(sorted(geometry.vertices))
        colour = rng.randint(1, n)
        before = naive_compact_a_violation(geometry, st.snapshot(), t)
        after_colours = st.snapshot()
        after_colours[v] = colour
        after = naive_compact_a_violation(geometry, after_colours, t)
        assert abs(c.probe_assign(v, colour) - (after - before)) < 1e-9


def test_mode_a_exact_probe_is_the_committed_change():
    """To the last bit: the probe and the commit take the same integer
    border total and sum the same component spheres, each colour and then
    the colours with ``math.fsum``."""
    rng = random.Random(67)
    geometry = grid(4, 4, 3)
    moves = 0
    while moves < 2000:
        st = ColourState(geometry, 3, colours=random_colours(rng, geometry, 3))
        c = CompactConstraint(st, threshold=0, mode="A", probe="exact")
        model = Model(st, [(c, 1)])
        for _ in range(100):
            v = rng.choice(st.order)
            colour = rng.randint(1, 3)
            before = c.violation()
            delta = c.probe_assign(v, colour)
            model.assign(v, colour)
            assert delta == c.violation() - before
            moves += 1


def test_mode_a_fast_probe_is_border_change():
    st = square_state([1, 1, 1, 1])
    c = CompactConstraint(st, threshold=0, mode="A")
    # approximation: the change of v's own border area
    assert c.probe_assign(0, 2) == 2


def test_mode_a_fast_probe_divergence_stats():
    """The cheap mode-A probe is an under/over-approximation; measure how
    often it differs from the exact recount instead of correcting it."""
    rng = random.Random(61)
    diverged = total = 0
    geometry = grid(3, 3, dim=2)
    for _ in range(300):
        st = ColourState(geometry, 3, colours=random_colours(rng, geometry, 3))
        fast = CompactConstraint(st, threshold=4, mode="A")
        exact = CompactConstraint(st, threshold=4, mode="A", probe="exact")
        v = rng.choice(sorted(geometry.vertices))
        colour = rng.randint(1, 3)
        if colour == st.colour(v):
            continue
        total += 1
        if abs(fast.probe_assign(v, colour) - exact.probe_assign(v, colour)) > 1e-9:
            diverged += 1
    assert total > 0
    print(f"mode-A fast probe diverged on {diverged}/{total} moves")


def test_commit_matches_scratch():
    rng = random.Random(47)
    for mode in ("A", "B"):
        geometry = random_geometry(rng)
        n = 3
        st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
        c = CompactConstraint(st, threshold=5, mode=mode)
        model = Model(st, [(c, 1)])
        for _ in range(150):
            v = rng.choice(sorted(geometry.vertices))
            model.assign(v, rng.randint(1, n))
            if mode == "B":
                expected = naive_compact_b_violation(geometry, st.snapshot(), 5)
            else:
                expected = naive_compact_a_violation(geometry, st.snapshot(), 5)
            assert abs(c.violation() - expected) < 1e-9


def test_commit_touches_only_neighbourhood_caches():
    geometry = grid(3, 3, dim=2)
    st = ColourState(geometry, 2)
    c = CompactConstraint(st, threshold=12)
    model = Model(st, [(c, 1)])
    before = dict(c.border_cache)
    model.assign(4, 2)  # centre cell
    changed = {v for v in before if before[v] != c.border_cache[v]}
    assert changed <= {4} | set(geometry.adjacent(4))


def test_mode_b_zero_iff_total_within_threshold():
    geometry = grid(2, 2, dim=2)
    st = ColourState(geometry, 2)
    for t in (0, 6, 8, 10, 12):
        for colouring in all_colourings(geometry.vertices, 2):
            st.set_all(colouring)
            c = CompactConstraint(st, threshold=t, mode="B")
            total = naive_compact_b_total(geometry, colouring)
            assert (c.violation() == 0) == (total <= t)
            assert (c.violation() == 0) == c.check()


def test_component_border_sums_add_up():
    rng = random.Random(53)
    geometry = grid(3, 3, dim=2)
    for _ in range(20):
        colours = random_colours(rng, geometry, 3)
        st = ColourState(geometry, 3, colours=colours)
        comp_total = sum(comp.border_area for comp in st.connected_components())
        vertex_total = sum(st.border_area(v) for v in geometry.vertices)
        assert comp_total == vertex_total


def test_identity_probe_equals_neighbour_delta_sum():
    rng = random.Random(59)
    geometry = grid(3, 3, dim=2)
    # mode B with identity weight and an exceeded threshold, and the mode A
    # fast probe, are both the physical border-area change of the move,
    # which the case table sums up
    for mode in ("B", "A"):
        for _ in range(50):
            st = ColourState(geometry, 3, colours=random_colours(rng, geometry, 3))
            c = CompactConstraint(st, threshold=0, mode=mode)
            v = rng.choice(sorted(geometry.vertices))
            colour = rng.randint(1, 3)
            if colour == st.colour(v):
                continue
            table_sum = sum(
                literal_neighbour_delta(geometry, st.colours(), w, v, colour)
                for w in geometry.adjacent(v)
            )
            assert c.probe_assign(v, colour) == table_sum


def _rank_colourings(geometry, n, seed):
    """A random colouring, a grown one and a one-colour one."""
    rng = random.Random(seed)
    yield random_colours(rng, geometry, n)
    yield grow_regions(geometry, n, rng)
    yield dict.fromkeys(geometry.vertices, n)


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("weight", ["identity", "square"])
@pytest.mark.parametrize("name", sorted(RANK_GEOMETRIES))
def test_rebuild_matches_a_scan_where_ranks_are_not_ids(name, weight, mode):
    """The border areas, conflicts and totals of a rebuild, from the
    geometry's edge masks, equal a cache-free scan of every vertex's
    neighbours."""
    geometry = RANK_GEOMETRIES[name]()
    f = (lambda x: x) if weight == "identity" or mode == "A" else (lambda x: x * x)
    for colours in _rank_colourings(geometry, 4, seed=len(name)):
        st = ColourState(geometry, 4, colours)
        c = CompactConstraint(st, threshold=0, mode=mode, weight_fn=weight)
        scan = {v: st.border_area(v) for v in geometry.vertices}
        assert c.border_cache == scan
        assert c.conflicts() == sum(1 << st.rank[v] for v, b in scan.items() if b)
        outside = f(geometry.outside_area()) if mode == "B" else 0
        assert c.border_total == sum(map(f, scan.values())) + outside
        if mode == "B":
            assert c.violation() == naive_compact_b_violation(geometry, colours, 0, weight)
        else:
            assert c.violation() == pytest.approx(naive_compact_a_violation(geometry, colours, 0))
