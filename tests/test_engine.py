import hashlib
import random
from dataclasses import replace

import pytest

from oracles import monotone_path, random_colours
from sectorsearch.constraints import (
    BalancedConstraint,
    BoundedConstraint,
    CompactConstraint,
    ConnectedConstraint,
    Constraint,
    NonBorderConstraint,
    StretchSumConstraint,
)
from sectorsearch.engine import (
    TOLERANCE,
    Model,
    Move,
    SearchConfig,
    _candidate_colours,
    neighbourhood,
    search,
)
from sectorsearch.errors import InputError
from sectorsearch.geometry import OrderedPath, grid
from sectorsearch.instance import generate
from sectorsearch.state import ColourState
from sectorsearch.systematic import brute_force_solve


def full_model(seed=0, side=4, n=3):
    """A model exercising every constraint family at once."""
    rng = random.Random(seed)
    g = grid(side, side, dim=2)
    st = ColourState(g, n, colours=random_colours(rng, g, n))
    values = {v: rng.randint(1, 9) for v in sorted(g.vertices)}
    path_vertices = monotone_path(rng, side, side)
    path = OrderedPath(path_vertices, g)
    dwell = [rng.randint(30, 90) for _ in path_vertices]
    constraints = [
        (ConnectedConstraint(st, "=", n, id="connected"), 1),
        (CompactConstraint(st, threshold=side * side, mode="B", id="compact"), 1),
        (BalancedConstraint(st, values, scale(values, n), id="balance"), 2),
        (BoundedConstraint(st, values, "<=", sum(values.values()), id="cap"), 1),
        (StretchSumConstraint(st, path, dwell, ">=", 60, id="dwell"), 1),
        (NonBorderConstraint(st, path, id="inside"), 1),
    ]
    return st, Model(st, constraints)


def scale(values, n):
    return round(0.2 * n * sum(values.values()))


def scratch_model_violation(model):
    """Fresh, unregistered clones measure the state from scratch."""
    total = 0.0
    for constraint, weight in model.entries:
        cls = type(constraint)
        st = constraint.state
        if cls is ConnectedConstraint:
            clone = cls(st, constraint.relop, constraint.counter_value, mode=constraint.mode)
        elif cls is CompactConstraint:
            clone = cls(st, constraint.threshold, mode=constraint.mode, weight_fn=constraint.weight_fn)
        elif cls is BalancedConstraint:
            clone = cls(st, constraint.values, constraint.delta_scaled)
        elif cls is BoundedConstraint:
            clone = cls(st, constraint.values, constraint.relop, constraint.threshold)
        elif cls is StretchSumConstraint:
            clone = cls(st, constraint.path, constraint.values, constraint.relop, constraint.threshold)
        else:
            clone = cls(st, constraint.path)
        total += weight * clone.violation()
    return total


def test_probe_noop_is_zero():
    st, model = full_model()
    v = sorted(st.geometry.vertices)[0]
    assert sum(model.probe_parts(Move.assign(v, st.colour(v))).values()) == 0


def test_assign_probe_matches_total_delta():
    rng = random.Random(13)
    st, model = full_model(seed=13)
    vs = sorted(st.geometry.vertices)
    for _ in range(100):
        v = rng.choice(vs)
        c = rng.randint(1, st.n)
        before = model.total_violation()
        delta = sum(model.probe_parts(Move.assign(v, c)).values())
        model.commit(Move.assign(v, c))
        assert abs((model.total_violation() - before) - delta) < 1e-9


def test_committed_caches_equal_scratch():
    rng = random.Random(19)
    st, model = full_model(seed=19)
    vs = sorted(st.geometry.vertices)
    for _ in range(200):
        model.commit(Move.assign(rng.choice(vs), rng.randint(1, st.n)))
    assert abs(model.total_violation() - scratch_model_violation(model)) < 1e-9


def test_weighted_total():
    st, model = full_model(seed=3)
    expected = sum(w * c.violation() for c, w in model.entries)
    assert model.total_violation() == expected


def test_neighbourhood_monochrome_introduces_unused_colours():
    geometry = grid(2, 2, dim=2)
    st = ColourState(geometry, 3)
    model = Model(st, [(ConnectedConstraint(st, "=", 2), 1)])
    moves = neighbourhood(model)
    assert moves  # every vertex borders the outside, unused colours exist
    assert all(m.colour in (2, 3) for m in moves)
    assert {m.vertex for m in moves} == set(geometry.vertices)


def test_neighbourhood_border_moves():
    geometry = grid(4, 1, dim=2)
    st = ColourState(geometry, 2, colours={0: 1, 1: 1, 2: 2, 3: 2})
    model = Model(st, [(ConnectedConstraint(st, "=", 2), 1)])
    moves = {(m.vertex, m.colour) for m in neighbourhood(model)}
    assert (1, 2) in moves
    assert (2, 1) in moves
    assert (0, 2) not in moves  # interior of its component, no unused colour


def test_neighbourhood_is_what_search_draws_from():
    geometry = grid(3, 3, dim=2)
    st = ColourState(geometry, 3)
    model = Model(st, [(ConnectedConstraint(st, "=", 2), 1)])
    # the centre borders neither another colour nor the outside, and an
    # unused colour still lets it move
    assert (4, 2) in {(m.vertex, m.colour) for m in neighbourhood(model)}

    def set_rule(v, unused):
        """The border rule as a set: neighbour colours and unused ones."""
        return sorted({st.colour(w) for w in geometry.adjacent(v)}.union(unused) - {st.colour(v)})

    rng = random.Random(4)
    for _ in range(3):
        for selector in ("border", "full"):
            unused = st.unused_colours()
            listed = {v: [] for v in st.order}
            for move in neighbourhood(model, selector):
                listed[move.vertex].append(move.colour)
            for v in st.order:
                assert listed[v] == _candidate_colours(model, v, selector, unused)
                if selector == "border":
                    assert listed[v] == set_rule(v, unused)
        st.assign(rng.choice(st.order), rng.randint(1, st.n))
    # every colour in use and the centre interior to its class: no candidate
    st.set_all({v: {0: 2, 8: 3}.get(v, 1) for v in st.order})
    assert st.unused_colours() == []
    for v in st.order:
        assert _candidate_colours(model, v, "border", []) == set_rule(v, [])
    assert _candidate_colours(model, 4, "border", []) == []


def test_neighbourhood_lists_counter_moves():
    geometry = grid(3, 1, dim=2)
    st = ColourState(geometry, 3)
    con = ConnectedConstraint(st, "=", 2)
    model = Model(st, [(con, 1)], searchable_counters={"connected": (1, 2, 3)})
    counter_moves = [m for m in neighbourhood(model) if m.kind == "counter"]
    assert {m.value for m in counter_moves} == {1, 3}


def test_commit_returns_the_move_that_takes_it_back():
    geometry = grid(3, 1, dim=2)
    st = ColourState(geometry, 3, colours={0: 1, 1: 2, 2: 3})
    con = ConnectedConstraint(st, "=", 2)
    model = Model(st, [(con, 1)], searchable_counters={"connected": (1, 2, 3)})
    assert model.commit(Move.assign(1, 3)) == Move.assign(1, 2)
    assert model.commit(Move.counter("connected", 3)) == Move.counter("connected", 2)
    assert con.counter_value == 3


def test_moves_are_immutable_and_hashable():
    move = Move.assign(1, 3)
    with pytest.raises(AttributeError):
        move.colour = 2
    assert (move.kind, move.vertex, move.colour, move.counter_id, move.value) == (
        "assign", 1, 3, None, None
    )
    assert Move.counter("connected", 3) == Move(kind="counter", counter_id="connected", value=3)
    tabu = {move: 5, Move.counter("connected", 3): 6}
    assert tabu[Move.assign(1, 3)] == 5
    assert Move.assign(1, 2) not in tabu and Move.assign(3, 1) not in tabu


def test_unknown_neighbourhood_rejected_before_any_draw():
    st, model = full_model(seed=3)
    before = st.snapshot()
    cfg = replace(SearchConfig(max_iterations=10, seed=1), neighbourhood="nosuch")
    with pytest.raises(InputError, match="neighbourhood 'nosuch'"):
        search(model, cfg)
    with pytest.raises(InputError, match="neighbourhood 'nosuch'"):
        neighbourhood(model, "nosuch")
    assert st.snapshot() == before


def test_search_starting_at_zero_returns_immediately():
    geometry = grid(2, 2, dim=2)
    st = ColourState(geometry, 1)
    model = Model(st, [(ConnectedConstraint(st, "=", 1), 1)])
    result = search(model, SearchConfig(max_iterations=100, seed=0, init="keep"))
    assert result.violation == 0
    assert result.iterations <= 1


def test_search_tiny_instance_reaches_zero():
    geometry = grid(4, 1, dim=2)
    st = ColourState(geometry, 2)
    model = Model(st, [(ConnectedConstraint(st, "=", 2), 1)])
    result = search(model, SearchConfig(max_iterations=2000, seed=5))
    assert result.violation == 0
    check_state = ColourState(geometry, 2, colours=result.colours)
    assert ConnectedConstraint(check_state, "=", 2).violation() == 0


def test_search_replay_is_deterministic():
    def run():
        geometry = grid(4, 4, dim=2)
        st = ColourState(geometry, 3)
        values = {v: (v % 5) + 1 for v in st.geometry.vertices}
        model = Model(
            st,
            [
                (ConnectedConstraint(st, "=", 3), 1),
                (BalancedConstraint(st, values, 30), 1),
            ],
        )
        return search(model, SearchConfig(max_iterations=800, seed=11))

    a, b = run(), run()
    assert a.trace == b.trace
    assert a.colours == b.colours
    assert a.violation == b.violation


def test_search_trace_shape():
    geometry = grid(3, 3, dim=2)
    st = ColourState(geometry, 2)
    model = Model(st, [(ConnectedConstraint(st, "=", 2), 1)])
    result = search(model, SearchConfig(max_iterations=50, seed=1))
    assert result.trace[0][0] == 0
    for row in result.trace:
        iteration, total, parts = row
        assert total == sum(parts)  # unit weights here


def test_hard_connected_stays_satisfied():
    geometry = grid(4, 4, dim=2)
    st = ColourState(geometry, 3)
    values = {v: (v * 7) % 11 + 1 for v in st.geometry.vertices}
    con = ConnectedConstraint(st, "=", 3, id="connected")
    bal = BalancedConstraint(st, values, 40, id="balance")
    model = Model(st, [(con, 1), (bal, 1)])
    result = search(
        model,
        SearchConfig(max_iterations=400, seed=2, hard=("connected",), init="random"),
    )
    # the run ends with the hard constraint still satisfied
    assert con.violation() == 0


def test_hard_stretchsum_initialised_and_kept():
    g = grid(6, 1, dim=2)
    st = ColourState(g, 2)
    path = OrderedPath([0, 1, 2, 3, 4, 5], g)
    dwell = [70, 70, 70, 70, 70, 70]
    ss = StretchSumConstraint(st, path, dwell, ">=", 120, id="dwell")
    model = Model(st, [(ss, 1)])
    result = search(model, SearchConfig(max_iterations=100, seed=3, hard=("dwell",)))
    assert ss.violation() == 0


def _counter_instance(relop="="):
    """The default 6x6 instance with the connected counter searchable."""
    instance = generate(seed=4, width=6, height=6, colours=3, flights=1)
    for spec in instance.constraints:
        if spec.kind == "connected":
            spec.params.update(relop=relop, counter_min=2, counter_max=4)
    return instance


def test_hard_search_leaves_no_state_for_the_next_search():
    instance = _counter_instance()
    plain = replace(instance.search, seed=3, max_iterations=2000)
    model = instance.build()
    search(model, replace(plain, seed=1, max_iterations=500, hard=("connected",)))
    again = search(model, plain)
    fresh = search(_counter_instance().build(), plain)
    assert again.trace == fresh.trace
    assert again.colours == fresh.colours
    assert again.iterations == fresh.iterations


def test_search_starts_from_the_built_counters():
    # the first search leaves the counter at 4; the next starts again at 3
    plain = replace(_counter_instance().search, seed=3, max_iterations=2000)
    model = _counter_instance().build()
    search(model, replace(plain, seed=5, max_iterations=15))
    assert model.constraint("connected").counter_value == 4
    again = search(model, plain)
    fresh = search(_counter_instance().build(), plain)
    assert again.trace == fresh.trace
    assert again.colours == fresh.colours


def test_result_counters_are_the_best_states():
    """The counters a result reports are those of its best colouring, not
    the ones the run ended on: rebuilding ``colours`` with ``counters``
    gives the reported violation."""
    ended_elsewhere = 0
    for seed in range(1, 6):
        instance = generate(seed=seed, width=6, height=6, colours=3, flights=1,
                            balanced_share=0.01)
        for spec in instance.constraints:
            if spec.kind == "connected":
                spec.params.update(counter_min=2, counter_max=4)
        for search_seed in range(1, 15):
            model = instance.build()
            result = search(model, replace(instance.search, seed=search_seed, max_iterations=60))
            ended = model.constraint("connected").counter_value
            ended_elsewhere += result.counters != {"connected": ended}
            rebuilt = instance.build(colours=result.colours)
            rebuilt.constraint("connected").commit_counter(result.counters["connected"])
            assert rebuilt.total_violation() == result.violation, (seed, search_seed)
    # runs whose counter moved on after their best state (35 of the 70);
    # in 28 of them the final counter rebuilds a total other than the best
    assert ended_elsewhere > 0


def test_exact_search_zeros_are_brute_force_solutions():
    zeros = unsolvable = 0
    for width, height, colours in ((3, 3, 2), (2, 4, 2), (3, 2, 3)):
        for seed in range(1, 7):
            instance = generate(seed=seed, width=width, height=height, colours=colours)
            solutions = brute_force_solve(instance.build(), limit=9)
            unsolvable += not solutions
            for search_seed in (1, 2, 3):
                cfg = replace(instance.search, seed=search_seed, max_iterations=150)
                result = search(instance.build(), cfg)
                # a zero on an instance without solutions fails here too
                if result.violation <= TOLERANCE:
                    zeros += 1
                    assert result.colours in solutions, (width, height, seed, search_seed)
    # both sides of the claim are exercised
    assert zeros and unsolvable


def test_hard_search_commits_no_counter_move():
    # under "<=" raising the counter keeps the hard constraint satisfied,
    # so only the freezing keeps the search from committing it
    instance = _counter_instance(relop="<=")
    model = instance.build()
    con = model.constraint("connected")
    assert any(m.kind == "counter" for m in neighbourhood(model))
    committed = []
    commit = model.commit

    def recording_commit(move):
        committed.append(move)
        return commit(move)

    model.commit = recording_commit
    cfg = replace(
        instance.search, seed=1, max_iterations=500, hard=("connected",), init="random"
    )
    search(model, cfg)
    assert committed
    assert all(move.kind == "assign" for move in committed)
    assert con.counter_value == 3  # hard_init keeps the counter it was built with


class _BreaksOnCommit(Constraint):
    """A hard constraint that is satisfied until the first commit."""

    id = "brittle"

    def __init__(self, state):
        super().__init__(state)
        self.broken = False

    def rebuild(self):
        pass

    def hard_init(self, rng):
        pass

    def violation(self):
        return int(self.broken)

    def var_violation(self, v):
        return 0

    def probe_assign(self, v, colour):
        return 0

    def commit_assign(self, v, old, new):
        self.broken = True


def test_hard_constraint_broken_by_a_commit_raises():
    geometry = grid(3, 3, dim=2)
    st = ColourState(geometry, 2)
    brittle = _BreaksOnCommit(st)
    model = Model(st, [(ConnectedConstraint(st, "=", 1), 1), (brittle, 1)])
    cfg = SearchConfig(max_iterations=50, seed=1, hard=("brittle",), init="random")
    with pytest.raises(RuntimeError, match="brittle"):
        search(model, cfg)

class _CountsProbes(Constraint):
    """Violated at every vertex for good; counts the probes it answers."""

    id = "counting"

    def __init__(self, state):
        super().__init__(state)
        self.probes = 0

    def rebuild(self):
        pass

    def violation(self):
        return 1

    def var_violation(self, v):
        return 1

    def probe_assign(self, v, colour):
        self.probes += 1
        return 0

    def commit_assign(self, v, old, new):
        pass


@pytest.mark.parametrize("hard", [(), ("connected",)], ids=["soft", "hard"])
def test_noise_draws_probe_nothing(hard):
    geometry = grid(4, 4, dim=2)
    st = ColourState(geometry, 3)
    counting = _CountsProbes(st)
    model = Model(st, [(ConnectedConstraint(st, "=", 3, id="connected"), 1), (counting, 1)])
    result = search(model, SearchConfig(max_iterations=50, seed=1, noise=1.0, hard=hard))
    assert result.iterations == 50
    # a noise draw needs no delta, but the hard filter needs every one
    assert (counting.probes > 0) == bool(hard)


# ---------------------------------------------------------------------------
# golden replays: any refactor must reproduce these runs byte for byte


def replay_digest(result):
    payload = repr(
        (sorted(result.colours.items()), result.trace, result.iterations, result.violation)
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_2d(seed, iters, init="regions", mode=None):
    instance = generate(seed=42, width=10, height=10, colours=4, flights=1)
    model = instance.build(mode_override=mode)
    cfg = replace(instance.search, seed=seed, max_iterations=iters, init=init)
    return search(model, cfg)


def _run_3d_compact_a(seed, iters, probe="fast"):
    instance = generate(
        seed=5, width=4, height=4, depth=3, dim=3, colours=6, flights=2, with_compact=True
    )
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(mode="A", threshold=0, probe=probe)
    model = instance.build()
    cfg = replace(
        instance.search, seed=seed, max_iterations=iters, moves_per_iter=2, restart_after=15
    )
    return search(model, cfg)


def _run_mixed(seed, iters):
    """Compact mode B, non-border and bounded alongside the default kinds;
    the compact budget is tight enough that its violation rises and falls."""
    instance = generate(
        seed=11,
        width=12,
        height=12,
        colours=5,
        flights=3,
        balanced_share=0.03,
        with_compact=True,
        with_nonborder=True,
        bounded_threshold=150,
    )
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(threshold=120)
    model = instance.build()
    cfg = replace(instance.search, seed=seed, max_iterations=iters, init="random")
    return search(model, cfg)


def _run_dwell(seed, iters, relop=">=", threshold=120, hard=()):
    """Three flights' stretch-sums, all under one relation and threshold."""
    instance = generate(seed=23, width=10, height=10, colours=4, flights=3)
    for spec in instance.constraints:
        if spec.kind == "stretchsum":
            spec.params.update(relop=relop, threshold=threshold)
    model = instance.build()
    cfg = replace(instance.search, seed=seed, max_iterations=iters, hard=hard)
    return search(model, cfg)


GOLDEN = [
    # exact connectedness from grown regions: short runs to zero
    (lambda: _run_2d(1, 1500), "a8fa6b684c733ad1a0b9ffdca760fb1b630eaaac89ba122999220e7274925860"),
    (lambda: _run_2d(2, 1500), "71ec73abb4897ddcb61096371bb8a907638e8331459e2f9c13031240759408ba"),
    (lambda: _run_2d(3, 1500), "9b046a442c89b43a71199e9b03447e9c8750a3da2e8d7c4a05a0919483d4f1aa"),
    # exact connectedness from a random colouring: many splits and merges
    (
        lambda: _run_2d(1, 600, init="random"),
        "ef8ca2b2e23c35915d5caf81f724848f5fe0c91ff0f711e6cfde08567a26cf83",
    ),
    (
        lambda: _run_2d(2, 600, init="random"),
        "da5034c00d516e4050e1ba1d8b489a5f2d6f16c1ddc98f5829e16d248db1a78d",
    ),
    # the paper-fast estimate, false counts included
    (
        lambda: _run_2d(1, 300, init="random", mode="paper-fast"),
        "3824336d682f591b03187954b0113165c5b5013c0c3d82a786dd0379dd1df048",
    ),
    # 3D, compact mode A, restarting every 15 iterations without progress
    (lambda: _run_3d_compact_a(1, 300), "0c6a637981865b2e0c1f18865083543c1672e77ab1338fec93ad7ef1764b3ddd"),
    # the same run with the exact mode A probe
    (
        lambda: _run_3d_compact_a(1, 300, probe="exact"),
        "83b731ba4a232996d89bebbaaba480d0462d324edd0ee61d1b2d914a613b9f6f",
    ),
    # compact mode B, non-border and bounded from a random colouring
    (
        lambda: _run_mixed(1, 800),
        "06dc2399c597c93a92ca95ab4a24cb0c15590232163c2069a49dab6c64a12efe",
    ),
    (
        lambda: _run_mixed(2, 800),
        "3f0e94384be1fffb67094b936b5feb33bad54d247fae6145ca03f42adfc8c1bf",
    ),
    # maximum dwell: every stretch-sum is "<=" a threshold that binds
    (
        lambda: _run_dwell(2, 600, relop="<=", threshold=300),
        "eaa1e4dbeec7b1f0b794e8bf002ca57d74d0c1648367dcba623a8b38c6624ff0",
    ),
    # a hard stretch-sum: greedy initialisation and the hard-move filter
    (
        lambda: _run_dwell(2, 600, hard=("dwell0",)),
        "e4da3fae6e3454c6b41e004132cfa040b927d64a8dcc0b44291409dc40256885",
    ),
]


@pytest.mark.parametrize("case", range(len(GOLDEN)))
def test_golden_replay_digest(case):
    run, expected = GOLDEN[case]
    assert replay_digest(run()) == expected


def coarse_digest(result):
    """The colours, the iteration count and the trace rounded to 9
    decimals: a pin that holds when float sums change in their last bits."""
    trace = [
        (i, round(total, 9), tuple(round(part, 9) for part in parts))
        for i, total, parts in result.trace
    ]
    payload = repr((sorted(result.colours.items()), result.iterations, trace))
    return hashlib.sha256(payload.encode()).hexdigest()


COARSE = [
    (lambda: _run_3d_compact_a(1, 300), "15ce6fa510619de620ac593c2b2f7bfa4a56c5fd519d283e5c70d74511d5a52b"),
    (
        lambda: _run_3d_compact_a(1, 300, probe="exact"),
        "39f2d931efe4e36b3e715f1280de9ab17dfacec2827c58b4277347c8607df76e",
    ),
]


@pytest.mark.parametrize("case", range(len(COARSE)))
def test_coarse_replay_digest(case):
    run, expected = COARSE[case]
    assert coarse_digest(run()) == expected
