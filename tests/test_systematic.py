import itertools
import random

import pytest

from oracles import naive_stretch_ok
from sectorsearch.constraints import ConnectedConstraint
from sectorsearch.engine import Model
from sectorsearch.errors import InputError
from sectorsearch.geometry import OrderedPath, grid
from sectorsearch.state import ColourState
from sectorsearch.systematic import (
    DomainStore,
    brute_force_filter,
    brute_force_solve,
    colour_graph_cp,
    connected_feasibility,
    contiguity_check,
    narrow_counter_domain,
    propagate_connected_1d,
    propagate_connected_path,
    signature_vars,
    stretchsum_dfa_check,
)


def path_of(length):
    g = grid(length, 1, dim=2)
    return g, OrderedPath(list(range(length)), g)


def contiguity_of_assignment(assignment):
    return contiguity_check([assignment[v] for v in sorted(assignment)])


def test_propagator_spec_example():
    g, path = path_of(4)
    store = DomainStore({0: {1, 2}, 1: {1}, 2: {1, 2}, 3: {2}})
    propagate_connected_path(store, path)
    assert not store.failed
    assert store.doms == {0: {1}, 1: {1}, 2: {1, 2}, 3: {2}}


def test_propagator_no_pruning_on_full_domains():
    g, path = path_of(4)
    store = DomainStore({v: {1, 2, 3} for v in range(4)})
    store.doms[1] = {2}
    events = propagate_connected_1d(store, path, 1)
    oracle = brute_force_filter(contiguity_of_assignment, store.copy())
    assert store.doms == oracle.doms
    assert not store.failed


def test_propagator_detects_split_colour():
    g, path = path_of(3)
    store = DomainStore({0: {1}, 1: {2}, 2: {1}})
    propagate_connected_path(store, path)
    assert store.failed


def test_propagator_requires_singleton_trigger():
    g, path = path_of(3)
    store = DomainStore({0: {1, 2}, 1: {1, 2}, 2: {1}})
    with pytest.raises(InputError):
        propagate_connected_1d(store, path, 0)


def test_propagator_interior_fill():
    g, path = path_of(4)
    store = DomainStore({0: {1}, 1: {1, 2}, 2: {1}, 3: {2}})
    propagate_connected_path(store, path)
    assert store.doms[1] == {1}


def test_propagator_prunes_beyond_the_singleton_rules():
    # forced occurrences interacting across non-singleton domains: value 4
    # at position 4 has no support although no pruning rule fires
    g, path = path_of(7)
    store = DomainStore(
        {
            0: {2, 4},
            1: {1, 2, 4},
            2: {1, 2, 3},
            3: {1, 2, 3, 4},
            4: {2, 4},
            5: {2, 4},
            6: {2},
        }
    )
    propagate_connected_path(store, path)
    oracle = brute_force_filter(contiguity_of_assignment, store.copy())
    assert store.doms[4] == {2}
    assert store.doms == oracle.doms


def test_propagator_matches_brute_force_randomised():
    rng = random.Random(107)
    for _ in range(120):
        m = rng.randint(2, 8)
        n = rng.randint(2, 4)
        doms = {}
        for v in range(m):
            size = rng.randint(1, n)
            doms[v] = set(rng.sample(range(1, n + 1), size))
        store = DomainStore({v: set(d) for v, d in doms.items()})
        g, path = path_of(m)
        propagate_connected_path(store, path)
        oracle = brute_force_filter(contiguity_of_assignment, DomainStore(doms))
        if oracle.failed:
            assert store.failed
        else:
            assert not store.failed
            assert store.doms == oracle.doms


def test_colour_graph_cp():
    g = grid(3, 1, dim=2)
    store = DomainStore({0: {1, 2}, 1: {2, 3}, 2: {1}})
    assert colour_graph_cp(store, g) == {(0, 1)}
    full = DomainStore({v: {1, 2} for v in range(3)})
    assert colour_graph_cp(full, g) == set(g.edges())
    disjoint = DomainStore({0: {1}, 1: {2}, 2: {2}})
    assert colour_graph_cp(disjoint, g) == {(1, 2)}


def test_connected_feasibility_flags():
    g = grid(3, 1, dim=2)
    sat = DomainStore({0: {1}, 1: {1}, 2: {2}})
    assert connected_feasibility(sat, g, "=", {2}) == "subsumed"
    bad = DomainStore({0: {1}, 1: {1}, 2: {2}})
    assert connected_feasibility(bad, g, "=", {3}) == "failed"
    split = DomainStore({0: {1}, 1: {2}, 2: {1}})
    assert connected_feasibility(split, g, "=", {2, 3}) == "failed"
    open_store = DomainStore({0: {1, 2}, 1: {1, 2}, 2: {2}})
    assert connected_feasibility(open_store, g, "=", {1, 2}) == "feasible"


def test_connected_feasibility_sound():
    rng = random.Random(109)
    g = grid(4, 1, dim=2)
    for _ in range(150):
        n = rng.randint(2, 3)
        doms = {v: set(rng.sample(range(1, n + 1), rng.randint(1, n))) for v in range(4)}
        counter_dom = set(rng.sample(range(1, 5), rng.randint(1, 4)))
        store = DomainStore({v: set(d) for v, d in doms.items()})
        verdict = connected_feasibility(store, g, "=", counter_dom)
        # enumerate completions to know the truth
        satisfiable = False
        st = ColourState(g, n)
        for combo in itertools.product(*[sorted(doms[v]) for v in range(4)]):
            st.set_all(dict(enumerate(combo)))
            from sectorsearch.constraints import connected_check

            if any(connected_check(st, "=", nv) for nv in counter_dom):
                satisfiable = True
                break
        if verdict == "failed":
            assert not satisfiable
        if verdict == "subsumed":
            assert satisfiable


def test_dfa_examples():
    assert stretchsum_dfa_check([1, 1, 2], [50, 80, 130], ">=", 120)
    assert not stretchsum_dfa_check([1, 2], [50, 80], ">=", 120)
    assert stretchsum_dfa_check([1], [120], ">=", 120)
    assert stretchsum_dfa_check([], [], ">=", 120)


def test_signature_vars():
    assert signature_vars([1, 1, 2]) == [1, 0]
    assert signature_vars([3, 3, 3]) == [1, 1]
    assert signature_vars([1, 2, 1]) == [0, 0]
    assert signature_vars([5]) == []


def test_dfa_agrees_with_scan_randomised():
    rng = random.Random(113)
    for _ in range(400):
        m = rng.randint(1, 8)
        colours = [rng.randint(1, 3) for _ in range(m)]
        values = [rng.randint(1, 9) for _ in range(m)]
        relop = rng.choice(("<=", "<", "=", "!=", ">", ">="))
        t = rng.randint(1, 15)
        assert stretchsum_dfa_check(colours, values, relop, t) == naive_stretch_ok(
            colours, values, relop, t
        )


def test_brute_force_solve_counts():
    geometry = grid(3, 1, dim=2)
    st = ColourState(geometry, 2)
    model = Model(st, [(ConnectedConstraint(st, "=", 1), 1)])
    solutions = brute_force_solve(model)
    assert len(solutions) == 2
    assert all(len(set(sol.values())) == 1 for sol in solutions)

    st2 = ColourState(grid(2, 1, dim=2), 2)
    empty_model = Model(st2, [])
    assert len(brute_force_solve(empty_model)) == 4

    st3 = ColourState(grid(2, 1, dim=2), 2)
    unsat = Model(st3, [(ConnectedConstraint(st3, "=", 5), 1)])
    assert brute_force_solve(unsat) == []


def test_brute_force_solve_respects_limit():
    geometry = grid(4, 3, dim=2)
    st = ColourState(geometry, 2)
    model = Model(st, [])
    with pytest.raises(InputError):
        brute_force_solve(model, limit=10)


def test_brute_force_filter_fixpoint_properties():
    store = DomainStore({0: {1}, 1: {1, 2}, 2: {2}})
    filtered = brute_force_filter(contiguity_of_assignment, store)
    again = brute_force_filter(contiguity_of_assignment, filtered)
    assert filtered.doms == again.doms  # already consistent stores are stable

    unsat = DomainStore({0: {1}, 1: {2}, 2: {1}})
    assert brute_force_filter(contiguity_of_assignment, unsat).failed


def test_narrow_counter_domain_sound():
    rng = random.Random(127)
    for _ in range(100):
        m = rng.randint(2, 6)
        n = rng.randint(2, 3)
        doms = {v: set(rng.sample(range(1, n + 1), rng.randint(1, n))) for v in range(m)}
        g, path = path_of(m)
        achievable = set()
        for combo in itertools.product(*[sorted(doms[v]) for v in range(m)]):
            runs = 1 + sum(1 for a, b in zip(combo, combo[1:]) if a != b)
            achievable.add(runs)
        store = DomainStore({v: set(d) for v, d in doms.items()}, counter_dom=set(range(0, m + 2)))
        narrow_counter_domain(store, path)
        assert achievable <= store.counter_dom
