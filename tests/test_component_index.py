"""The state's component index, and compact mode A's per-component sums
kept by its labels, against from-scratch components along random walks."""

import math
import random

import pytest

from oracles import naive_components, random_colours
from sectorsearch.constraints import CompactConstraint, ConnectedConstraint, sphere_surface
from sectorsearch.geometry import envelop, grid
from sectorsearch.state import ColourState


def assert_index_matches_components(index, base, colours, n):
    comps = naive_components(base, colours)
    labels = []
    for _, comp in comps:
        comp_labels = {index.label[u] for u in comp}
        assert len(comp_labels) == 1, "one component carries several labels"
        (lab,) = comp_labels
        assert index.size[lab] == len(comp)
        labels.append(lab)
    assert len(set(labels)) == len(labels), "two components share a label"
    assert set(index.size) == set(labels), "sizes kept for labels no vertex carries"
    per = dict.fromkeys(range(1, n + 1), 0)
    for colour, _ in comps:
        per[colour] += 1
    assert index.count == per
    assert index.total == len(comps)
    assert index.excess == sum(k - 1 for k in per.values() if k > 1)


def assert_compact_sums_match_components(c, st):
    index = st.component_index()
    terms = [{} for _ in range(st.n + 1)]
    for comp in st.connected_components():
        lab = index.label[min(comp.vertices)]
        assert c.sigma[lab] == comp.border_area
        assert c.nu[lab] == comp.volume
        terms[comp.colour][lab] = comp.border_area - sphere_surface(comp.volume, st.env.dim)
    assert set(c.sigma) == set(c.nu) == set(index.size)
    assert c.terms == terms
    assert c.colour_term == [math.fsum(t.values()) for t in terms]
    assert c.violation() == max(math.fsum(c.colour_term) - c.threshold, 0.0)


@pytest.mark.parametrize("with_connected", [False, True], ids=["compact-alone", "with-connected"])
def test_walk_keeps_index_and_compact_sums(with_connected):
    rng = random.Random(71)
    env = envelop(grid(4, 4, 3))
    n = 3
    st = ColourState(env, n, colours=random_colours(rng, env, n))
    compact = CompactConstraint(st, threshold=0, mode="A", probe="exact")
    st.register(compact)
    if with_connected:
        connected = ConnectedConstraint(st, "=", n)
        st.register(connected)
    index = st.component_index()
    splits = merges = commits = 0

    def check():
        assert_index_matches_components(index, env.base, st.snapshot(), n)
        assert_compact_sums_match_components(compact, st)
        if with_connected:
            assert connected.ncc_by_colour is index.count

    while commits < 400:
        v = rng.choice(st.order)
        colour = rng.randint(1, n)
        if colour == st.colour(v):
            continue
        st.assign(v, colour)
        commits += 1
        splits += index.change.pieces >= 2
        merges += len(index.change.joined) >= 2
        check()
        if commits % 50 == 0:
            st.set_all(random_colours(rng, env, n))
            check()
    assert splits > 20 and merges > 20
