"""Maintained conflict masks and colour classes.

Every constraint's ``conflicts()`` must equal the mask of the vertices
with a positive ``var_violation``, the state's class masks and sizes must
describe the colouring, and the engine's sorted view of a mask must list
the same vertices in the same order as the sorted pool it replaces.
"""

import gc
import random
from dataclasses import replace

import pytest

from oracles import assert_caches_match_rebuild, monotone_path, random_colours
from sectorsearch.constraints import (
    BalancedConstraint,
    BoundedConstraint,
    CompactConstraint,
    ConnectedConstraint,
    NonBorderConstraint,
    StretchSumConstraint,
)
from sectorsearch.engine import Model, Move, search
from sectorsearch.geometry import Geometry, OrderedPath, grid
from sectorsearch.instance import ConstraintSpec, generate
from sectorsearch.state import ColourState, MaskView


def _relabelled(g, f):
    """``g`` with every vertex id ``v`` renamed to ``f(v)``: one facet per
    edge and one border facet per border vertex, with the same areas."""
    facets_of = {f(v): [] for v in g.vertices}
    areas = {}
    for v, w in g.edges():
        facets_of[f(v)].append(len(areas))
        facets_of[f(w)].append(len(areas))
        areas[len(areas)] = g.edge_areas(v)[w]
    for v, area in g.border_areas.items():
        facets_of[f(v)].append(len(areas))
        areas[len(areas)] = area
    return Geometry(facets_of, areas, {f(v): g.volume(v) for v in g.vertices}, g.dim)


def all_kinds(side, n, rng, rename=None):
    """A state on a ``side`` x ``side`` grid with every constraint kind
    held by one model; ``rename`` relabels the vertex ids."""
    rename = rename or (lambda v: v)
    g = _relabelled(grid(side, side, dim=2), rename)
    st = ColourState(g, n, colours=random_colours(rng, g, n))
    # small workloads with a whole average, so that a class sum sometimes
    # hits it and the balanced term of that class is zero
    values = {v: rng.randint(1, 2) for v in sorted(g.vertices)}
    values[st.order[0]] += -sum(values.values()) % n
    volumes = {v: g.volume(v) for v in g.vertices}
    paths = [
        OrderedPath([rename(v) for v in monotone_path(rng, side, side)], g) for _ in range(2)
    ]
    dwell = [[rng.randint(30, 90) for _ in p.interior] for p in paths]
    share = sum(values.values()) // n
    constraints = [
        ConnectedConstraint(st, "=", n, id="connected"),
        ConnectedConstraint(st, "<=", n, mode="paper-fast", id="connected_fast"),
        BalancedConstraint(st, values, n * share // 5, id="balanced"),
        BalancedConstraint(st, volumes, n, id="balanced_size"),
        BoundedConstraint(st, values, "<=", share, id="bounded"),
        CompactConstraint(st, side, mode="A", id="compact_a"),
        CompactConstraint(st, side, mode="A", weight_fn="square", id="compact_a2"),
        CompactConstraint(st, 4 * side, mode="B", id="compact_b"),
        CompactConstraint(st, 4 * side, mode="B", weight_fn="square", id="compact_b2"),
        StretchSumConstraint(st, paths[0], dwell[0], ">=", 120, id="dwell_min"),
        StretchSumConstraint(st, paths[1], dwell[1], "<=", 150, id="dwell_max"),
        NonBorderConstraint(st, paths[0], id="nonborder"),
    ]
    return st, Model(st, [(c, 1 + i % 3) for i, c in enumerate(constraints)])


def check_invariants(st, model):
    assert_caches_match_rebuild(st, [c for c, _ in model.entries])
    masks = {c.id: c.conflicts() for c, _ in model.entries}
    union = 0
    for mask in masks.values():
        union |= mask
    colours = st.snapshot()
    assert st.unused_colours() == [
        c for c in range(1, st.n + 1) if c not in set(colours.values())
    ]
    # the pool the engine used to scan for
    pool = [
        v
        for v in sorted(st.geometry.vertices)
        if any(w * c.var_violation(v) > 0 for c, w in model.entries)
    ]
    view = MaskView(st.order, union)
    assert len(view) == len(pool)
    assert [view[k] for k in range(len(view))] == pool
    return masks


@pytest.mark.parametrize(
    "rename", [None, lambda v: 3 * v + 7], ids=["dense-ids", "sparse-ids"]
)
def test_masks_track_var_violation_over_a_walk(rename):
    rng = random.Random(23)
    st, model = all_kinds(6, 4, rng, rename)
    connected = model.constraint("connected")
    hard = [connected, model.constraint("dwell_min"), model.constraint("dwell_max")]
    seen = {c.id: set() for c, _ in model.entries}
    commits = rebuilds = probes = 0
    for step in range(420):
        roll = rng.random()
        if roll < 0.03:
            model.set_all(random_colours(rng, st.geometry, st.n))
            rebuilds += 1
        elif roll < 0.06:
            rng.choice(hard).hard_init(model, rng)
            rebuilds += 1
        elif roll < 0.2:
            v, w = rng.sample(st.order, 2)
            before = st.snapshot()
            model.probe_parts(Move.assign(v, st.colour(w)))
            assert st.snapshot() == before
            model.assign(v, st.colour(w))
            check_invariants(st, model)
            model.assign(v, before[v])
            probes += 1
        else:
            model.assign(rng.choice(st.order), rng.randint(1, st.n))
            commits += 1
        for cid, mask in check_invariants(st, model).items():
            seen[cid].add(mask)
    assert commits >= 300 and rebuilds >= 5 and probes >= 30
    # every mask took several values, so every update path was exercised
    assert all(len(masks) > 2 for masks in seen.values()), seen


def test_rank_is_the_position_in_order():
    for rename in (lambda v: v, lambda v: 5 * v + 2):
        geometry = _relabelled(grid(3, 4, dim=2), rename)
        st = ColourState(geometry, 2)
        assert st.order == sorted(geometry.vertices)
        assert [st.rank[v] for v in st.order] == list(range(len(st.order)))


def test_mask_view_matches_the_sorted_list():
    rng = random.Random(5)
    order = sorted(rng.sample(range(100000), 3000))
    for bits in (0, 1, 17, 1500, 3000):
        ranks = sorted(rng.sample(range(3000), bits))
        mask = sum(1 << r for r in ranks)
        view = MaskView(order, mask)
        listed = [order[r] for r in ranks]
        assert len(view) == len(listed)
        assert list(view) == listed
        if listed:
            assert view[-1] == listed[-1]
            for seed in range(20):
                assert random.Random(seed).choice(view) == random.Random(seed).choice(listed)
        with pytest.raises(IndexError):
            view[len(listed)]


def test_dropped_model_leaves_no_reference_cycle():
    instance = generate(
        seed=3, width=12, height=12, colours=5, flights=3,
        with_compact=True, with_nonborder=True, bounded_threshold=80,
    )
    gc.collect()
    gc.disable()
    try:
        model = instance.build()
        search(model, replace(instance.search, seed=1, max_iterations=30))
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the search never falls back to a per-vertex scan of a built-in kind


def _every_kind_instance(compact_mode):
    instance = generate(
        seed=11, width=9, height=9, colours=5, flights=3,
        with_compact=True, with_nonborder=True, bounded_threshold=60,
    )
    instance.constraints.append(
        ConstraintSpec(id="size", kind="balanced_size", params={"delta_scaled": 40})
    )
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(mode=compact_mode)
    return instance


def _no_scan(v):
    raise AssertionError("var_violation called during search")


@pytest.mark.parametrize("compact_mode", ["A", "B"])
@pytest.mark.parametrize("connected_mode", ["exact", "paper-fast"])
def test_search_never_calls_var_violation(compact_mode, connected_mode):
    instance = _every_kind_instance(compact_mode)
    kinds = {spec.kind for spec in instance.constraints}
    assert kinds == {
        "connected", "balanced", "balanced_size", "bounded",
        "compact", "stretchsum", "nonborder",
    }
    cfg = replace(instance.search, seed=4, max_iterations=250, restart_after=60)
    reference = search(instance.build(mode_override=connected_mode), cfg)
    model = instance.build(mode_override=connected_mode)
    for constraint, _ in model.entries:
        constraint.var_violation = _no_scan
    result = search(model, cfg)
    assert result.iterations > 100
    assert result.trace == reference.trace
    assert result.colours == reference.colours
