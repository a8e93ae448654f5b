import random

import pytest

from oracles import (
    all_colourings,
    assert_index_matches_components,
    naive_connected_ok,
    naive_connected_violation,
    random_colours,
    random_geometry,
)
from sectorsearch.constraints import ConnectedConstraint, connected_check
from sectorsearch.engine import Model
from sectorsearch.errors import InitError
from sectorsearch.geometry import grid
from sectorsearch.state import ColourState

RELOPS = ("<=", "<", "=", "!=", ">", ">=")


def path_state(colours, n=2):
    geometry = grid(len(colours), 1, dim=2)
    return ColourState(geometry, n, colours={i: c for i, c in enumerate(colours)})


def test_check_examples():
    assert connected_check(path_state([1, 1, 2, 2]), "=", 2)
    assert connected_check(path_state([1, 1, 1]), "=", 1)
    assert not connected_check(path_state([1, 2, 1]), "=", 3)


def test_violation_examples():
    st = path_state([1, 1, 2, 1])
    c = ConnectedConstraint(st, "=", 2)
    assert c.violation() == 2
    assert ConnectedConstraint(path_state([1, 1, 1]), "=", 1).violation() == 0
    st2 = path_state([1, 2, 1, 2])
    assert ConnectedConstraint(st2, "=", 4).violation() == 2


def test_var_violations():
    st = path_state([1, 1, 2, 1])
    c = ConnectedConstraint(st, "=", 2)
    assert c.var_violation(0) == 1
    assert c.var_violation(2) == 0
    mono = ConnectedConstraint(path_state([1, 1, 1]), "=", 1)
    assert all(mono.var_violation(v) == 0 for v in (0, 1, 2))


def test_counter_violation():
    st = path_state([1, 1, 2, 1])
    assert ConnectedConstraint(st, "=", 2).var_violation_counter() == 1
    assert ConnectedConstraint(path_state([1, 1, 2, 2]), "=", 2).var_violation_counter() == 0
    assert ConnectedConstraint(path_state([1, 1, 1]), "<=", 5).var_violation_counter() == 0


def test_probe_examples():
    st = path_state([1, 1, 2, 1])
    c = ConnectedConstraint(st, "=", 2)
    assert c.probe_assign(3, 2) == -2
    assert c.probe_assign(3, 1) == 0  # no-op move
    # merging move: the fast estimate and the exact recount disagree
    fast = ConnectedConstraint(st, "=", 2, mode="paper-fast")
    assert c.probe_assign(2, 1) == -1
    assert fast.probe_assign(2, 1) == -2


def test_probe_counter():
    st = path_state([1, 1, 2, 1])
    c = ConnectedConstraint(st, "=", 2)
    assert c.probe_counter(3) == -1
    assert c.probe_counter(2) == 0
    st2 = path_state([1, 1, 2, 2])
    c2 = ConnectedConstraint(st2, "=", 2)
    assert c2.probe_counter(5) == 1


def test_commit_updates_caches():
    st = path_state([1, 1, 2, 1])
    c = ConnectedConstraint(st, "=", 2)
    model = Model(st, [(c, 1)])
    model.assign(3, 2)
    assert c.counts.count == {1: 1, 2: 1}
    assert c.violation() == 0


def test_commit_merge_exact():
    st = path_state([1, 1, 2, 1])
    c = ConnectedConstraint(st, "=", 2)
    model = Model(st, [(c, 1)])
    model.assign(2, 1)
    assert c.ncc == 1


def test_probe_matches_scratch_diff():
    rng = random.Random(17)
    for _ in range(300):
        geometry = random_geometry(rng)
        n = rng.randint(2, 3)
        st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
        relop = rng.choice(RELOPS)
        n_val = rng.randint(1, n + 1)
        c = ConnectedConstraint(st, relop, n_val)
        v = rng.choice(sorted(geometry.vertices))
        colour = rng.randint(1, n)
        before = naive_connected_violation(geometry, st.snapshot(), relop, n_val)
        delta = c.probe_assign(v, colour)
        after_colours = st.snapshot()
        after_colours[v] = colour
        after = naive_connected_violation(geometry, after_colours, relop, n_val)
        assert delta == after - before


def test_incremental_equals_scratch_after_commits():
    rng = random.Random(23)
    geometry = random_geometry(rng)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    c = ConnectedConstraint(st, "=", 2)
    model = Model(st, [(c, 1)])
    for _ in range(200):
        v = rng.choice(sorted(geometry.vertices))
        model.assign(v, rng.randint(1, n))
        assert c.violation() == naive_connected_violation(geometry, st.snapshot(), "=", 2)
        assert c.ncc == sum(c.counts.count.values())


def test_violation_zero_iff_check_small_exhaustive():
    geometry = grid(2, 2, dim=2)
    st = ColourState(geometry, 2)
    for relop, n_val in (("=", 2), ("<=", 1), (">=", 3)):
        for colouring in all_colourings(geometry.vertices, 2):
            st.set_all(colouring)
            c = ConnectedConstraint(st, relop, n_val)
            assert (c.violation() == 0) == c.check()
            assert c.check() == naive_connected_ok(geometry, colouring, relop, n_val)


def test_fast_mode_tracks_component_counts_without_splits_or_merges():
    rng = random.Random(31)
    for _ in range(200):
        geometry = random_geometry(rng)
        n = 3
        st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
        index = st.component_index()
        fast = ConnectedConstraint(st, "=", 2, mode="paper-fast")
        v = rng.choice(sorted(geometry.vertices))
        colour = rng.randint(1, n)
        if colour == st.colour(v):
            continue
        merges = len(index.neighbour_labels(v, colour))
        pieces = index.split(v)[0]
        p, m = fast._fast_pm(v, colour, st.colour(v))
        true_ncc_delta = (1 - merges) + (pieces - 1)
        if merges <= 1 and pieces <= 1:
            assert p - m == true_ncc_delta
        # the estimate never diverges without a split or a merge
        if p - m != true_ncc_delta:
            assert merges >= 2 or pieces >= 2


def label_walk(rng, geometry, n, steps, relop="=", n_val=2):
    """Random commits, checking labels, sizes and probes after each one;
    returns how many commits split their old component and how many
    merged several components of the new colour."""
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    c = ConnectedConstraint(st, relop, n_val)
    model = Model(st, [(c, 1)])
    index = st.component_index()
    vertices = sorted(geometry.vertices)
    splits = merges = 0
    for _ in range(steps):
        v = rng.choice(vertices)
        colour = rng.randint(1, n)
        if colour != st.colour(v):
            splits += index.split(v)[0] >= 2
            merges += len(index.neighbour_labels(v, colour)) >= 2
        model.assign(v, colour)
        colours = st.snapshot()
        assert_index_matches_components(index, geometry, colours, n)
        before = naive_connected_violation(geometry, colours, relop, n_val)
        assert c.violation() == before
        for _ in range(3):
            w = rng.choice(vertices)
            probe_colour = rng.randint(1, n)
            after_colours = dict(colours)
            after_colours[w] = probe_colour
            after = naive_connected_violation(geometry, after_colours, relop, n_val)
            assert c.probe_assign(w, probe_colour) == after - before
    return splits, merges


def test_labels_track_components_on_random_envs():
    rng = random.Random(41)
    splits = merges = 0
    for _ in range(20):
        geometry = random_geometry(rng)
        s, m = label_walk(rng, geometry, rng.randint(2, 3), 20, relop=rng.choice(RELOPS))
        splits += s
        merges += m
    assert splits > 0 and merges > 0


def test_labels_track_components_on_grid():
    rng = random.Random(43)
    geometry = grid(6, 6, dim=2)
    splits, merges = label_walk(rng, geometry, 3, 400, n_val=3)
    assert splits > 0 and merges > 0


def test_hard_init_relops():
    geometry = grid(4, 3, dim=2)
    rng = random.Random(2)
    for relop, counter in (("=", 3), ("<=", 2), (">=", 2), ("<", 4), (">", 1), ("!=", 1)):
        st = ColourState(geometry, 4)
        c = ConnectedConstraint(st, relop, counter)
        c.hard_init(Model(st, [(c, 1)]), rng)
        assert c.check()
        assert c.violation() == 0


def test_hard_init_single_colour():
    geometry = grid(3, 1, dim=2)
    st = ColourState(geometry, 1)
    c = ConnectedConstraint(st, "=", 1)
    c.hard_init(Model(st, [(c, 1)]), random.Random(0))
    assert len(set(st.snapshot().values())) == 1


def test_hard_init_impossible():
    geometry = grid(2, 1, dim=2)
    st = ColourState(geometry, 2)
    c = ConnectedConstraint(st, "=", 5)  # needs 5 components on 2 vertices
    with pytest.raises(InitError):
        c.hard_init(Model(st, [(c, 1)]), random.Random(0))
