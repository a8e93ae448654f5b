import random

import pytest

from oracles import (
    assert_caches_match_rebuild,
    literal_min_sum_table_delta,
    naive_stretch_ok,
    naive_stretch_violation,
    naive_stretches,
)
from sectorsearch.constraints import StretchSumConstraint, stretch_sum_check
from sectorsearch.engine import Model
from sectorsearch.errors import InitError, InputError
from sectorsearch.geometry import OrderedPath, grid
from sectorsearch.state import ColourState

RELOPS = ("<=", "<", "=", "!=", ">", ">=")


def make(colours, values, relop=">=", t=120, n=3):
    g = grid(len(colours), 1, dim=2)
    st = ColourState(g, n, colours={i: c for i, c in enumerate(colours)})
    path = OrderedPath(list(range(len(colours))), g)
    return st, StretchSumConstraint(st, path, values, relop, t)


def test_check_examples():
    assert stretch_sum_check([1, 1, 2], [50, 80, 130], ">=", 120)
    assert not stretch_sum_check([1, 2], [50, 80], ">=", 120)
    assert stretch_sum_check([1], [120], ">=", 120)


def test_violation_examples():
    _, c = make([1, 1, 2], [50, 80, 130])
    assert c.violation() == 0
    _, c2 = make([1, 2, 1], [50, 80, 50])
    assert c2.violation() == 3
    _, c3 = make([1, 1, 1], [50, 80, 130])
    assert c3.violation() == 0


def test_var_violation_examples():
    _, c = make([1, 1, 2], [50, 80, 130])
    assert c.var_violation(1) == 0  # border; dropping it breaks the stretch
    _, c2 = make([1, 1, 1], [100, 100, 100])
    assert c2.var_violation(2) == 100  # border; stretch survives the drop
    assert c2.var_violation(1) == 0  # interior
    _, c3 = make([1, 2, 1], [50, 80, 50])
    assert c3.var_violation(0) == 1  # border of a violating stretch


def test_probe_interior_split():
    _, c = make([1, 1, 1], [50, 80, 130])
    assert c.probe_assign(1, 2) == 2


def test_probe_no_op():
    _, c = make([1, 1, 2], [50, 80, 130])
    assert c.probe_assign(0, 1) == 0
    assert c.probe_assign(9, 1) == 0  # off-path vertex


def test_probe_singleton_merge():
    # literal inputs: both stretches already satisfy >= 120, so the oracle
    # gives 0; the merge effect shows at threshold 140
    _, c = make([1, 2, 2], [130, 50, 80], t=120)
    assert c.probe_assign(0, 2) == 0
    st, c2 = make([1, 2, 2], [130, 50, 80], t=140)
    assert c2.violation() == 2
    assert c2.probe_assign(0, 2) == -2


def test_probe_matches_rescan_all_relops():
    rng = random.Random(61)
    for _ in range(400):
        m = rng.randint(1, 8)
        colours = [rng.randint(1, 3) for _ in range(m)]
        values = [rng.randint(1, 9) for _ in range(m)]
        relop = rng.choice(RELOPS)
        t = rng.randint(1, 15)
        st, c = make(colours, values, relop, t)
        i = rng.randrange(m)
        colour = rng.randint(1, 3)
        before = naive_stretch_violation(colours, values, relop, t)
        after_colours = list(colours)
        after_colours[i] = colour
        after = naive_stretch_violation(after_colours, values, relop, t)
        assert c.probe_assign(i, colour) == after - before


@pytest.mark.parametrize("relop", RELOPS)
def test_commit_rebuilds_affected_records(relop):
    rng = random.Random(67)
    m = 9
    colours = [rng.randint(1, 3) for _ in range(m)]
    values = [rng.randint(1, 9) for _ in range(m)]
    st, c = make(colours, values, relop, 12)
    model = Model(st, [(c, 1)])
    for _ in range(300):
        v = rng.randrange(m)
        colour = rng.randint(1, 3)
        before = c.violation()
        delta = c.probe_assign(v, colour)
        model.assign(v, colour)
        assert c.violation() - before == delta
        snapshot = [st.colour(i) for i in range(m)]
        assert_caches_match_rebuild(st, [c])
        assert c.violation() == naive_stretch_violation(snapshot, values, relop, 12)


def test_records_match_stretch_scan():
    _, c = make([1, 1, 2, 2, 2, 1], [5, 5, 5, 5, 5, 5], ">=", 10)
    # stretches 0..1, 2..4 and 5..5, with their value sums
    assert c._start == [0, 0, 2, 2, 2, 5]
    assert c._end == [1, 1, 4, 4, 4, 5]
    assert c._sum == [10, 10, 15, 15, 15, 5]


def test_violation_zero_iff_check():
    rng = random.Random(71)
    for _ in range(200):
        m = rng.randint(1, 7)
        colours = [rng.randint(1, 3) for _ in range(m)]
        values = [rng.randint(1, 9) for _ in range(m)]
        relop = rng.choice(RELOPS)
        t = rng.randint(1, 12)
        _, c = make(colours, values, relop, t)
        assert (c.violation() == 0) == c.check()
        assert c.check() == naive_stretch_ok(colours, values, relop, t)


def test_literal_table_divergences_confined_to_singletons():
    """The closed-form case table is exact except in singleton-merge cases."""
    rng = random.Random(73)
    divergences = 0
    for _ in range(600):
        m = rng.randint(2, 7)
        colours = [rng.randint(1, 3) for _ in range(m)]
        values = [rng.randint(1, 9) for _ in range(m)]
        t = rng.randint(1, 15)
        _, c = make(colours, values, ">=", t)
        i = rng.randrange(m)
        d = rng.randint(1, 3)
        if d == colours[i]:
            continue
        exact = c.probe_assign(i, d)
        table = literal_min_sum_table_delta(colours, values, i, d, t)
        if exact != table:
            divergences += 1
            span = next((a, b) for a, b in naive_stretches(colours) if a <= i <= b)
            assert span[0] == i == span[1], "divergence outside a singleton case"
    assert divergences > 0  # the cases exist and are documented


def test_hard_init_minimum_dwell():
    rng = random.Random(79)
    for _ in range(50):
        m = rng.randint(1, 9)
        values = [rng.randint(20, 90) for _ in range(m)]
        t = rng.randint(30, 150)
        g = grid(m, 1, dim=2)
        st = ColourState(g, 2)
        path = OrderedPath(list(range(m)), g)
        c = StretchSumConstraint(st, path, values, ">=", t)
        if sum(values) < t:
            with pytest.raises(InitError):
                c.hard_init(Model(st, [(c, 1)]), rng)
        else:
            c.hard_init(Model(st, [(c, 1)]), rng)
            assert c.violation() == 0


def test_hard_init_maximum_dwell():
    rng = random.Random(83)
    for _ in range(50):
        m = rng.randint(1, 9)
        values = [rng.randint(5, 60) for _ in range(m)]
        t = rng.randint(40, 120)
        g = grid(m, 1, dim=2)
        st = ColourState(g, 2)
        path = OrderedPath(list(range(m)), g)
        c = StretchSumConstraint(st, path, values, "<=", t)
        if max(values) > t:
            with pytest.raises(InitError):
                c.hard_init(Model(st, [(c, 1)]), rng)
        else:
            c.hard_init(Model(st, [(c, 1)]), rng)
            assert c.violation() == 0


def test_hard_init_single_vertex():
    g = grid(1, 1, dim=2)
    st = ColourState(g, 2)
    c = StretchSumConstraint(st, OrderedPath([0], g), [150], ">=", 120)
    c.hard_init(Model(st, [(c, 1)]), random.Random(0))
    assert c.violation() == 0


def test_hard_init_unsupported_relop():
    g = grid(2, 1, dim=2)
    st = ColourState(g, 2)
    c = StretchSumConstraint(st, OrderedPath([0, 1], g), [5, 5], "=", 10)
    before = st.snapshot()
    with pytest.raises(InputError, match="relation = cannot be hard"):
        c.hard_init(Model(st, [(c, 1)]), random.Random(0))
    assert st.snapshot() == before


def test_value_validation():
    g = grid(2, 1, dim=2)
    st = ColourState(g, 2)
    path = OrderedPath([0, 1], g)
    with pytest.raises(InputError):
        StretchSumConstraint(st, path, [5], ">=", 10)
    with pytest.raises(InputError):
        StretchSumConstraint(st, path, [5, 0], ">=", 10)
