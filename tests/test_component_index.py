"""The state's component index, and compact mode A's per-component
volumes and spheres kept by its labels, against from-scratch components
along random walks."""

import math
import random

import pytest

from oracles import assert_caches_match_rebuild, assert_index_matches_components, random_colours
from sectorsearch import bench
from sectorsearch.constraints import CompactConstraint, ConnectedConstraint, sphere_surface
from sectorsearch.engine import Model
from sectorsearch.geometry import grid
from sectorsearch.state import ColourState


def assert_compact_caches_match_components(c, st):
    index = st.component_index()
    dim = st.geometry.dim
    spheres = [{} for _ in range(st.n + 1)]
    for comp in st.connected_components():
        lab = index.label[min(comp.vertices)]
        assert c.nu[lab] == comp.volume
        spheres[comp.colour][lab] = sphere_surface(comp.volume, dim)
    assert set(c.nu) == set(index.size)
    assert c.spheres == spheres
    assert c.sphere_sums == [math.fsum(s.values()) for s in spheres]
    assert c.sphere_total == math.fsum(c.sphere_sums)
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
        assert_caches_match_rebuild(st, constraints)
        assert_compact_caches_match_components(compact, st)

    while commits < 400:
        v = rng.choice(st.order)
        colour = rng.randint(1, n)
        if colour == st.colour(v):
            continue
        before = compact.violation()
        delta = compact.probe_assign(v, colour)
        model.assign(v, colour)
        # the exact probe is the committed change, to the last bit
        assert delta == compact.violation() - before
        commits += 1
        splits += index.change.pieces >= 2
        merges += len(index.change.joined) >= 2
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
        # without a probe, as after a noise draw, runs its own
        v = probed[0] if step % 4 else rng.choice([u for u in st.order if u not in probed])
        model.assign(v, rng.choice([c for c in range(1, n + 1) if c != st.colour(v)]))
        assert searched == ([] if step % 4 else [v])
        searched.clear()
        splits += index.change.pieces >= 2
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
