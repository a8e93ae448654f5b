"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the criterion at its stated tolerance.
"""

import itertools
import random
import time
from dataclasses import replace

from oracles import (
    all_colourings,
    monotone_path,
    naive_balanced_violation,
    naive_bounded_violation,
    naive_compact_a_violation,
    naive_compact_b_violation,
    naive_connected_violation,
    naive_nonborder_violation,
    naive_stretch_violation,
    random_colours,
)
from sectorsearch.bench import bench_probe_scaling
from sectorsearch.constraints import (
    BalancedConstraint,
    BoundedConstraint,
    CompactConstraint,
    ConnectedConstraint,
    NonBorderConstraint,
    StretchSumConstraint,
    stretch_sum_check,
)
from sectorsearch.engine import Model, search
from sectorsearch.geometry import OrderedPath, grid
from sectorsearch.instance import generate
from sectorsearch.state import ColourState, stretches
from sectorsearch.systematic import (
    DomainStore,
    brute_force_filter,
    contiguity_check,
    propagate_connected_path,
    stretchsum_dfa_check,
)

RELOPS = ("<=", "<", "=", "!=", ">", ">=")

SMALL_GRIDS = [
    (2, 2, 1, 2),
    (2, 3, 1, 2),
    (3, 2, 1, 2),
    (2, 4, 1, 2),
    (4, 2, 1, 2),
    (2, 2, 2, 3),
    (4, 1, 1, 2),
    (6, 1, 1, 2),
    (8, 1, 1, 2),
]


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _small_geometry(rng):
    while True:
        w, h, d, dim = rng.choice(SMALL_GRIDS)
        if w * h * d <= 8:
            return grid(w, h, d, dim=dim)


def _instance_cap(n, size):
    return n ** size <= 2200


def test_criterion_1_violation_semantics_equivalence():
    rng = random.Random(10)
    start = time.time()
    checked = 0

    def sweep(geometry, n, build):
        nonlocal checked
        st = ColourState(geometry, n)
        constraint = build(st)
        model = Model(st, [(constraint, 1)])
        for colouring in all_colourings(geometry.vertices, n):
            model.set_all(colouring)
            assert (constraint.violation() == 0) == constraint.check()
            checked += 1

    for _ in range(50):
        geometry = _small_geometry(rng)
        n = rng.randint(2, 3)
        if not _instance_cap(n, len(geometry.vertices)):
            n = 2
        relop = rng.choice(RELOPS)
        n_val = rng.randint(1, n + 1)
        sweep(geometry, n, lambda st: ConnectedConstraint(st, relop, n_val))

        geometry = _small_geometry(rng)
        n = 2 if not _instance_cap(3, len(geometry.vertices)) else rng.randint(2, 3)
        t = rng.randint(0, 30)
        weight = rng.choice(("identity", "square"))
        sweep(geometry, n, lambda st: CompactConstraint(st, t, mode="B", weight_fn=weight))

        m = rng.randint(2, 8)
        g = grid(m, 1, dim=2)
        path = OrderedPath(list(range(m)), g)
        values = [rng.randint(1, 9) for _ in range(m)]
        relop_s = rng.choice(RELOPS)
        t_s = rng.randint(1, 15)
        n = 2 if not _instance_cap(3, m) else rng.randint(2, 3)
        sweep(g, n, lambda st: StretchSumConstraint(st, path, values, relop_s, t_s))

        g = _small_geometry(rng)
        n = 2 if not _instance_cap(3, len(g.vertices)) else rng.randint(2, 3)
        values_map = {v: rng.randint(0, 9) for v in sorted(g.vertices)}
        delta = rng.randint(0, 40)
        sweep(g, n, lambda st: BalancedConstraint(st, values_map, delta))

        g = _small_geometry(rng)
        n = 2 if not _instance_cap(3, len(g.vertices)) else rng.randint(2, 3)
        values_map = {v: rng.randint(0, 9) for v in sorted(g.vertices)}
        relop_b = rng.choice(RELOPS)
        t_b = rng.randint(0, 25)
        sweep(g, n, lambda st: BoundedConstraint(st, values_map, relop_b, t_b))

        w, h = rng.choice(((2, 3), (3, 2), (2, 4), (2, 2)))
        g = grid(w, h, dim=2)
        pv = monotone_path(rng, w, h)
        path = OrderedPath(pv, g)
        n = 2 if not _instance_cap(3, w * h) else rng.randint(2, 3)
        sweep(g, n, lambda st: NonBorderConstraint(st, path))

    elapsed = time.time() - start
    _verdict(
        1,
        elapsed <= 60,
        f"violation == 0 iff checker over {checked} colourings of 50 random "
        f"instances per family, exact, {elapsed:.1f}s",
    )


def _probe_state(rng, side=4, n=3):
    g = grid(side, side, dim=2)
    st = ColourState(g, n, colours=random_colours(rng, g, n))
    return g, st


def test_criterion_2_delta_exactness():
    rng = random.Random(20)
    start = time.time()
    probes_per_family = 10000

    def drive(model, scratch, tolerance=0):
        """Random walk of probe-then-commit moves of a one-constraint
        model, each probe checked against the naive before/after
        difference."""
        constraint, _ = model.entries[0]
        st = model.state
        vertices = sorted(st.geometry.vertices)
        for _ in range(probes_per_family):
            v = rng.choice(vertices)
            colour = rng.randint(1, st.n)
            cols = st.snapshot()
            after_cols = dict(cols)
            after_cols[v] = colour
            expected = scratch(after_cols) - scratch(cols)
            delta = constraint.probe_assign(v, colour)
            if tolerance:
                assert abs(delta - expected) <= tolerance
            else:
                assert delta == expected
            model.assign(v, colour)

    g, st = _probe_state(rng)
    connected = ConnectedConstraint(st, "=", 3)
    model = Model(st, [(connected, 1)])
    drive(model, lambda cols: naive_connected_violation(g, cols, "=", 3))

    g, st = _probe_state(rng)
    pv = monotone_path(rng, 4, 4)
    values = [rng.randint(1, 9) for _ in pv]
    stretch = StretchSumConstraint(st, OrderedPath(pv, g), values, ">=", 12)
    model = Model(st, [(stretch, 1)])
    drive(model, lambda cols: naive_stretch_violation([cols[u] for u in pv], values, ">=", 12))

    g, st = _probe_state(rng)
    value_map = {v: (v % 9) + 1 for v in g.vertices}
    balanced = BalancedConstraint(st, value_map, 30)
    model = Model(st, [(balanced, 1)])
    drive(model, lambda cols: naive_balanced_violation(cols, value_map, 3, 30))

    g, st = _probe_state(rng)
    bounded = BoundedConstraint(st, value_map, "<=", 20)
    model = Model(st, [(bounded, 1)])
    drive(model, lambda cols: naive_bounded_violation(cols, value_map, 3, "<=", 20))

    g, st = _probe_state(rng)
    pv = monotone_path(rng, 4, 4)
    non_border = NonBorderConstraint(st, OrderedPath(pv, g))
    model = Model(st, [(non_border, 1)])
    drive(model, lambda cols: naive_nonborder_violation(g, cols, pv))

    g, st = _probe_state(rng)
    compact_b = CompactConstraint(st, 20, mode="B")
    model = Model(st, [(compact_b, 1)])
    drive(model, lambda cols: naive_compact_b_violation(g, cols, 20), tolerance=1e-9)

    g, st = _probe_state(rng)
    compact_a = CompactConstraint(st, 10, mode="A", probe="exact")
    model = Model(st, [(compact_a, 1)])
    drive(model, lambda cols: naive_compact_a_violation(g, cols, 10), tolerance=1e-9)

    elapsed = time.time() - start
    _verdict(
        2,
        elapsed <= 60,
        f"probe == scratch(after) - scratch(before) for {probes_per_family} probes "
        f"per constraint in exact mode, integer-exact (1e-9 for sphere terms), {elapsed:.1f}s",
    )


def test_criterion_3_incrementality_on_20x20():
    rng = random.Random(30)
    side = 20
    g = grid(side, side, dim=2)
    n = 4
    st = ColourState(g, n, colours=random_colours(rng, g, n))
    values = {v: rng.randint(1, 9) for v in sorted(g.vertices)}
    pv = monotone_path(rng, side, side)
    dwell = [rng.randint(30, 120) for _ in pv]
    path = OrderedPath(pv, g)

    connected = ConnectedConstraint(st, "=", n)
    compact_a = CompactConstraint(st, 50, mode="A", id="compact_a")
    compact_b = CompactConstraint(st, 120, mode="B", id="compact_b")
    balanced = BalancedConstraint(st, values, 100)
    bounded = BoundedConstraint(st, values, "<=", 600)
    stretch = StretchSumConstraint(st, path, dwell, ">=", 120)
    non_border = NonBorderConstraint(st, path)
    constraints = (connected, compact_a, compact_b, balanced, bounded, stretch, non_border)
    model = Model(st, [(c, 1) for c in constraints])

    vertices = sorted(g.vertices)
    moves = 10000
    for i in range(1, moves + 1):
        model.assign(rng.choice(vertices), rng.randint(1, n))
        if i % 2500 == 0 or i == moves:
            cols = st.snapshot()
            assert connected.violation() == naive_connected_violation(g, cols, "=", n)
            assert abs(compact_a.violation() - naive_compact_a_violation(g, cols, 50)) <= 1e-9
            assert abs(compact_b.violation() - naive_compact_b_violation(g, cols, 120)) <= 1e-9
            assert balanced.violation() == naive_balanced_violation(cols, values, n, 100)
            assert bounded.violation() == naive_bounded_violation(cols, values, n, "<=", 600)
            assert stretch.violation() == naive_stretch_violation([cols[u] for u in pv], dwell, ">=", 120)
            assert non_border.violation() == naive_nonborder_violation(g, cols, pv)
    _verdict(
        3,
        True,
        f"after {moves} committed moves on a {side}x{side} grid every cached "
        "violation equals the from-scratch recomputation",
    )


def test_criterion_4_propagator_domain_consistency():
    rng = random.Random(40)
    start = time.time()
    instances = 0
    while instances < 500:
        m = rng.randint(2, 10)
        n = rng.randint(2, 4)
        doms = {v: set(rng.sample(range(1, n + 1), rng.randint(1, n))) for v in range(m)}
        size = 1
        for d in doms.values():
            size *= len(d)
        if size > 60000:
            continue
        instances += 1
        g = grid(m, 1, dim=2)
        path = OrderedPath(list(range(m)), g)
        store = DomainStore({v: set(d) for v, d in doms.items()})
        propagate_connected_path(store, path)
        oracle = brute_force_filter(
            lambda a: contiguity_check([a[v] for v in sorted(a)]),
            DomainStore({v: set(d) for v, d in doms.items()}),
        )
        if oracle.failed:
            assert store.failed
        else:
            assert not store.failed
            assert store.doms == oracle.doms
    elapsed = time.time() - start
    _verdict(
        4,
        True,
        f"propagator fixpoint == brute-force filter fixpoint on {instances} "
        f"random pre-pruned path stores, set for set, {elapsed:.1f}s",
    )


def test_criterion_5_dfa_equivalence():
    start = time.time()
    compared = 0
    # both checkers consume only adjacent-equality comparisons, so the
    # canonical colourings (one per equality pattern) cover every colouring
    for m in range(1, 7):
        patterns = []
        for bits in itertools.product((0, 1), repeat=m - 1):
            colours = [1]
            for same in bits:
                colours.append(colours[-1] if same else colours[-1] + 1)
            patterns.append(colours)
        for values in itertools.product(range(1, 6), repeat=m):
            for colours in patterns:
                for relop in (">=", "<="):
                    for t in range(1, 11):
                        a = stretchsum_dfa_check(colours, values, relop, t)
                        b = stretch_sum_check(colours, values, relop, t)
                        assert a == b, (colours, values, relop, t)
                        compared += 1
    # a literal sweep over raw colourings for the smallest lengths
    for m in range(1, 5):
        for values in itertools.product(range(1, 6), repeat=m):
            for colours in itertools.product((1, 2, 3), repeat=m):
                for relop in (">=", "<="):
                    for t in (1, 5, 10):
                        assert stretchsum_dfa_check(colours, values, relop, t) == stretch_sum_check(
                            colours, values, relop, t
                        )
                        compared += 1
    elapsed = time.time() - start
    _verdict(5, True, f"automaton == scan checker on {compared} cases, exact, {elapsed:.1f}s")


def test_criterion_6_worked_stretch_example():
    spans = stretches([1, 1, 4, 4, 4, 4, 4, 4, 1, 1, 1, 2])
    ok = spans == [(0, 1), (2, 7), (8, 10), (11, 11)]
    _verdict(6, ok, f"stretch spans {spans}")


def test_criterion_7_fast_delta_divergence_ledger():
    rng = random.Random(70)
    probes = 10000
    divergences = 0
    g = grid(6, 6, dim=2)
    n = 3
    st = ColourState(g, n, colours=random_colours(rng, g, n))
    exact = ConnectedConstraint(st, "=", n)
    fast = ConnectedConstraint(st, "=", n, mode="paper-fast")
    model = Model(st, [(exact, 1)])
    index = st.component_index()
    vertices = sorted(g.vertices)
    from sectorsearch.relation import holds

    for _ in range(probes):
        v = rng.choice(vertices)
        colour = rng.randint(1, n)
        if colour == st.colour(v):
            continue
        p, m = fast._fast_pm(v, colour, st.colour(v))
        fast_ncc_delta = p - m
        merges = len(index.neighbour_labels(v, colour))
        pieces = index.split(v)[0]
        true_ncc_delta = (1 - merges) + (pieces - 1)
        ncc = exact.ncc
        fast_delta = fast_ncc_delta + int(holds("=", ncc, n)) - int(
            holds("=", ncc + fast_ncc_delta, n)
        )
        true_delta = true_ncc_delta + int(holds("=", ncc, n)) - int(
            holds("=", ncc + true_ncc_delta, n)
        )
        if fast_delta != true_delta:
            divergences += 1
            assert merges >= 2 or pieces >= 2, "unclassified divergence"
        if merges <= 1 and pieces <= 1:
            assert fast_delta == true_delta, "estimate wrong without split/merge"
        model.assign(v, colour)
    _verdict(
        7,
        True,
        f"{divergences} fast/exact component-delta divergences out of {probes} "
        "probes, every one an articulation split or multi-component merge, "
        "0 false divergences",
    )


def test_criterion_8_probe_cost_scaling():
    start = time.time()
    report = bench_probe_scaling(sizes=(100, 1000, 10000), probes=3000, seed=8)
    elapsed = time.time() - start
    ratios = report["ratios"]
    ok = all(r <= 2.0 for r in ratios.values()) and elapsed <= 120
    detail = ", ".join(f"{k} x{v:.2f}" for k, v in sorted(ratios.items()))
    _verdict(8, ok, f"mean border-probe time ratio 1000->10000 vertices: {detail}, {elapsed:.1f}s")


def test_criterion_9_end_to_end_solve():
    instance = generate(seed=42, width=10, height=10, colours=4, flights=1)
    kinds = [spec.kind for spec in instance.constraints]
    assert kinds == ["connected", "balanced", "stretchsum"]
    successes = 0
    for seed in range(1, 11):
        model = instance.build()
        cfg = replace(instance.search, seed=seed, max_iterations=50000)
        result = search(model, cfg)
        if result.violation <= 1e-9:
            successes += 1
    # deterministic replay for one seed
    model_a = instance.build()
    model_b = instance.build()
    cfg = replace(instance.search, seed=5, max_iterations=50000)
    res_a = search(model_a, cfg)
    res_b = search(model_b, cfg)
    ok = successes >= 8 and res_a.trace == res_b.trace and res_a.colours == res_b.colours
    _verdict(9, ok, f"{successes}/10 seeds reached violation 0; replay identical")
