import random

from oracles import (
    naive_balanced_violation,
    naive_bounded_violation,
    random_colours,
    random_geometry,
)
from sectorsearch.constraints import BalancedConstraint, BoundedConstraint, deviation_check
from sectorsearch.engine import Model
from sectorsearch.geometry import grid
from sectorsearch.state import ColourState

RELOPS = ("<=", "<", "=", "!=", ">", ">=")


def make_state(colours, n=2):
    geometry = grid(len(colours), 1, dim=2)
    return ColourState(geometry, n, colours={i: c for i, c in enumerate(colours)})


def test_deviation_check_examples():
    # two sums adding up to 12: |2*8 - 12| + |2*4 - 12| = 8
    assert deviation_check([8, 4], 12, 8)
    assert deviation_check([6, 6], 12, 0)
    assert not deviation_check([8, 4], 12, 7)


def test_balanced_violation_examples():
    st = make_state([1, 1, 2])
    values = {0: 3, 1: 5, 2: 4}
    assert BalancedConstraint(st, values, 8).violation() == 0
    assert BalancedConstraint(st, values, 6).violation() == 2
    st_even = make_state([1, 2])
    assert BalancedConstraint(st_even, {0: 5, 1: 5}, 0).violation() == 0


def test_balanced_var_violation():
    st = make_state([1, 1, 2])
    c = BalancedConstraint(st, {0: 3, 1: 5, 2: 4}, 8)
    assert c.var_violation(0) == 4  # |2*8 - 12|
    assert c.var_violation(2) == 4  # |2*4 - 12|
    st_even = make_state([1, 2])
    c2 = BalancedConstraint(st_even, {0: 5, 1: 5}, 0)
    assert c2.var_violation(0) == 0


def test_balanced_probe_example():
    st = make_state([1, 1, 2])
    c = BalancedConstraint(st, {0: 3, 1: 5, 2: 4}, 0)
    assert c.probe_assign(2, 1) == 16
    assert c.probe_assign(2, 2) == 0


def test_balanced_probe_reaching_balance():
    st = make_state([1, 1, 2, 2])
    c = BalancedConstraint(st, {0: 1, 1: 2, 2: 2, 3: 3}, 0)
    # moving vertex 1 to colour 2 gives sums (1, 7): worse; moving 3 to 1 balances
    before = c.violation()
    assert c.probe_assign(3, 1) == naive_balanced_violation(
        {0: 1, 1: 1, 2: 2, 3: 1}, {0: 1, 1: 2, 2: 2, 3: 3}, 2, 0
    ) - before


def test_bounded_violation_examples():
    st = make_state([1, 1, 2])
    values = {0: 3, 1: 5, 2: 4}
    assert BoundedConstraint(st, values, "<=", 7).violation() == 1
    assert BoundedConstraint(st, values, "<=", 12).violation() == 0
    assert BoundedConstraint(st, values, ">=", 0).violation() == 0


def test_bounded_probe_example():
    st = make_state([1, 1, 2])
    c = BoundedConstraint(st, {0: 3, 1: 5, 2: 4}, "<=", 7)
    assert c.probe_assign(0, 2) == -1


def test_probes_match_scratch():
    rng = random.Random(89)
    for _ in range(300):
        geometry = random_geometry(rng)
        n = rng.randint(2, 3)
        st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
        values = {v: rng.randint(0, 9) for v in sorted(geometry.vertices)}
        colours = st.snapshot()
        v = rng.choice(sorted(geometry.vertices))
        colour = rng.randint(1, n)
        after = dict(colours)
        after[v] = colour

        delta = rng.randint(0, 40)
        bal = BalancedConstraint(st, values, delta)
        expected = naive_balanced_violation(after, values, n, delta) - naive_balanced_violation(
            colours, values, n, delta
        )
        assert bal.probe_assign(v, colour) == expected

        relop = rng.choice(RELOPS)
        t = rng.randint(0, 25)
        bou = BoundedConstraint(st, values, relop, t)
        expected = naive_bounded_violation(after, values, n, relop, t) - naive_bounded_violation(
            colours, values, n, relop, t
        )
        assert bou.probe_assign(v, colour) == expected


def test_commits_conserve_sums():
    rng = random.Random(97)
    geometry = random_geometry(rng)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    values = {v: rng.randint(1, 9) for v in sorted(geometry.vertices)}
    bal = BalancedConstraint(st, values, 10)
    bou = BoundedConstraint(st, values, "<=", 15)
    model = Model(st, [(bal, 1), (bou, 1)])
    total = sum(values.values())
    for _ in range(200):
        v = rng.choice(sorted(geometry.vertices))
        model.assign(v, rng.randint(1, n))
        assert sum(bal.sums.values()) == total
        assert sum(bou.sums.values()) == total
        colours = st.snapshot()
        assert bal.violation() == naive_balanced_violation(colours, values, n, 10)
        assert bou.violation() == naive_bounded_violation(colours, values, n, "<=", 15)
        assert (bal.violation() == 0) == bal.check()
        assert (bou.violation() == 0) == bou.check()


def test_balanced_over_volumes_is_balanced_size():
    geometry = grid(2, 2, dim=2, cell_volume=3)
    st = ColourState(geometry, 2, colours={0: 1, 1: 1, 2: 2, 3: 2})
    volumes = {v: geometry.volume(v) for v in geometry.vertices}
    c = BalancedConstraint(st, volumes, 0, id="balanced_size")
    assert c.violation() == 0  # two cells of volume 3 per colour
    st.assign(3, 1)
    c.rebuild()
    assert c.violation() == naive_balanced_violation(st.snapshot(), volumes, 2, 0)


def test_checks_read_the_colours_not_the_cache():
    rng = random.Random(101)
    geometry = random_geometry(rng)
    n = 3
    st = ColourState(geometry, n, colours=random_colours(rng, geometry, n))
    values = {v: rng.randint(1, 9) for v in sorted(geometry.vertices)}
    # in no model: every assign leaves their sums stale
    bal = BalancedConstraint(st, values, 10)
    bou = BoundedConstraint(st, values, "<=", 15)
    for _ in range(100):
        st.assign(rng.choice(sorted(geometry.vertices)), rng.randint(1, n))
        colours = st.snapshot()
        assert bal.check() == (naive_balanced_violation(colours, values, n, 10) == 0)
        assert bou.check() == (naive_bounded_violation(colours, values, n, "<=", 15) == 0)
