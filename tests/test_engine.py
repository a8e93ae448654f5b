import hashlib
import random
from dataclasses import replace

import pytest

from oracles import assert_caches_match_rebuild, monotone_path, random_colours
from sectorsearch.constraints import (
    BalancedConstraint,
    BoundedConstraint,
    CompactConstraint,
    ConnectedConstraint,
    Constraint,
    NonBorderConstraint,
    StretchSumConstraint,
)
from sectorsearch.constraints.connected import component_counts
from sectorsearch.engine import (
    TOLERANCE,
    Model,
    Move,
    SearchConfig,
    _candidate_rule,
    _luby,
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
        assert_caches_match_rebuild(st, [c for c, _ in model.entries])


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
        unused = st.unused_colours()
        listed = {v: [] for v in st.order}
        for move in neighbourhood(model):
            listed[move.vertex].append(move.colour)
        rule = _candidate_rule(st)
        for v in st.order:
            assert listed[v] == rule(v, unused) == set_rule(v, unused)
        st.assign(rng.choice(st.order), rng.randint(1, st.n))
    # a rule built before set_all follows it
    border = _candidate_rule(st)
    # every colour in use and the centre interior to its class: no candidate
    st.set_all({v: {0: 2, 8: 3}.get(v, 1) for v in st.order})
    assert st.unused_colours() == []
    for v in st.order:
        assert border(v, []) == set_rule(v, [])
    assert border(4, []) == []


def test_neighbourhood_lists_counter_moves():
    geometry = grid(3, 1, dim=2)
    st = ColourState(geometry, 3)
    con = ConnectedConstraint(st, "=", 2)
    model = Model(st, [(con, 1)], searchable_counters={"connected": (1, 2, 3)})
    counter_moves = [m for m in neighbourhood(model) if m.kind == "counter"]
    assert {m.value for m in counter_moves} == {1, 3}


def test_moves_are_immutable_and_hashable():
    move = Move.assign(1, 3)
    with pytest.raises(AttributeError):
        move.colour = 2
    assert (move.kind, move.vertex, move.colour, move.counter_id, move.value) == (
        "assign", 1, 3, None, None
    )
    assert Move.counter("connected", 3) == Move(kind="counter", counter_id="connected", value=3)
    by_move = {move: 5, Move.counter("connected", 3): 6}
    assert by_move[Move.assign(1, 3)] == 5
    assert Move.assign(1, 2) not in by_move and Move.assign(3, 1) not in by_move


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
        SearchConfig(max_iterations=400, seed=2, hard=("connected",)),
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
    search(model, replace(plain, seed=3, max_iterations=20))
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


@pytest.mark.parametrize("seed", range(1, 8))
def test_the_best_state_survives_restarts(seed):
    """A restart replaces the colouring between two best states; the best
    colouring a result reports still rebuilds to the violation it reports.
    Compact mode A at threshold 0 restarts often here, on a Luby schedule
    of unit 10."""
    instance = generate(
        seed=seed, width=4, height=4, depth=3, dim=3, colours=6, flights=2, with_compact=True
    )
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(mode="A", threshold=0)
    plain = replace(instance.search, moves_per_iter=2, restart_after=10, max_iterations=300)
    for search_seed in range(1, 6):
        result = search(instance.build(), replace(plain, seed=search_seed))
        rebuilt = instance.build(colours=result.colours)
        for cid, value in result.counters.items():
            rebuilt.constraint(cid).commit_counter(value)
        assert rebuilt.total_violation() == result.violation, search_seed


def _count_calls(obj, name, counts):
    method = getattr(obj, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    setattr(obj, name, counted)


@pytest.mark.parametrize("restarts", [False, True], ids=["one-start", "restarts"])
def test_the_colouring_is_copied_once_per_start(restarts):
    """Best states after the first of a start are recorded from the commits
    since the last one, not by copying the colouring."""
    instance = generate(seed=3, width=12, height=12, colours=4, flights=2)
    model = instance.build()
    counts = dict.fromkeys(("snapshot", "set_all"), 0)
    for name in counts:
        _count_calls(model.state, name, counts)
    # fewer iterations, so fewer commits, than the 144 vertices; seed 2
    # restarts once within them
    cfg = replace(instance.search, seed=2, max_iterations=140,
                  restart_after=10 if restarts else 1000)
    result = search(model, cfg)
    best, improvements = float("inf"), 0
    for _, total, _ in result.trace:
        if total < best - TOLERANCE:
            best, improvements = total, improvements + 1
    # more best states than starts, so copying each would show
    assert improvements > counts["set_all"]
    if restarts:
        assert counts["set_all"] > 1
        assert counts["snapshot"] <= counts["set_all"]
    else:
        assert counts == {"snapshot": 1, "set_all": 1}


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


def test_brute_force_restores_the_colouring_and_the_caches():
    instance = generate(seed=3, width=3, height=3, colours=3, flights=1,
                        with_compact=True, with_nonborder=True)
    for spec in instance.constraints:
        if spec.kind == "compact":
            spec.params.update(mode="A", threshold=0)
    model = instance.build()
    # after a search the component labels differ from a first build's, so
    # caches left at the enumeration's last colouring cannot pass as rebuilt
    search(model, replace(instance.search, seed=1, max_iterations=20))
    before = model.state.snapshot()
    brute_force_solve(model, limit=9)
    assert model.state.snapshot() == before
    assert_caches_match_rebuild(model.state, [c for c, _ in model.entries])


def test_a_model_refuses_a_constraint_on_another_state():
    geometry = grid(3, 3, dim=2)
    state, other = ColourState(geometry, 2), ColourState(geometry, 2)
    workloads = dict.fromkeys(geometry.vertices, 1)
    with pytest.raises(InputError, match="constraint balanced: built on another state"):
        Model(state, [(BalancedConstraint(other, workloads, 0), 1)])


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
    cfg = replace(instance.search, seed=1, max_iterations=500, hard=("connected",))
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

    def hard_init(self, model, rng):
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
    cfg = SearchConfig(max_iterations=50, seed=1, hard=("brittle",))
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


class _CountsConflicts(_CountsProbes):
    """Also counts the times it is asked for its conflicts."""

    def __init__(self, state):
        super().__init__(state)
        self.asked = 0

    def conflicts(self):
        self.asked += 1
        return super().conflicts()


def test_a_full_pool_asks_no_later_constraint():
    # 37 does not divide by 4 colours, so every colour's sum misses the
    # average and the balance alone puts every vertex in the pool
    geometry = grid(6, 6, dim=2)
    st = ColourState(geometry, 4)
    values = dict.fromkeys(geometry.vertices, 1)
    values[0] = 2
    counting = _CountsConflicts(st)
    model = Model(st, [(BalancedConstraint(st, values, 0), 1), (counting, 1)])
    result = search(model, SearchConfig(max_iterations=50, seed=1))
    assert result.iterations == 50
    assert counting.asked == 0


def test_luby_sequence():
    assert [_luby(k) for k in range(1, 32)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 16,
    ]


def _restart_waits(restart_after, max_iterations):
    """The commits between consecutive starts of a run whose best stays
    put: each is one more than the iterations without a new best that the
    restart waited for."""
    st = ColourState(grid(4, 4, dim=2), 3)
    model = Model(st, [(_CountsProbes(st), 1)])
    commits = []
    starts = []
    commit, set_all = model.commit, model.set_all

    def counted_commit(move):
        commits.append(move)
        return commit(move)

    def counted_set_all(*args, **kwargs):
        starts.append(len(commits))
        return set_all(*args, **kwargs)

    model.commit, model.set_all = counted_commit, counted_set_all
    result = search(model, SearchConfig(seed=1, restart_after=restart_after,
                                        max_iterations=max_iterations))
    assert result.restarts == len(starts) - 1
    return [b - a - 1 for a, b in zip(starts, starts[1:])]


def test_restarts_follow_the_luby_schedule():
    assert _restart_waits(3, 60)[:7] == [3, 3, 6, 3, 3, 6, 12]


def test_restart_after_0_restarts_at_every_iteration_without_a_new_best():
    assert _restart_waits(0, 40) == [0] * 20


def test_restarts_do_not_count_a_hard_init():
    """A hard connected constraint's ``hard_init`` recolours the state a
    second time per start, so bulk assignments over-count restarts."""
    instance = generate(seed=4, width=6, height=6, colours=3, flights=1)
    model = instance.build()
    counts = {"set_all": 0}
    _count_calls(model.state, "set_all", counts)
    cfg = replace(instance.search, seed=21, max_iterations=400, restart_after=5,
                  hard=("connected",))
    result = search(model, cfg)
    assert result.restarts == 2
    assert counts["set_all"] == 6


def test_keep_names_the_first_start_only():
    """A run that keeps the model's colouring grows fresh regions at each
    restart, so every restart it counts recolours the state."""
    instance = generate(seed=3, width=8, height=8, colours=4, flights=1, balanced_share=0.0)
    model = instance.build()
    counts = {"set_all": 0}
    _count_calls(model, "set_all", counts)
    cfg = replace(instance.search, seed=1, max_iterations=300, restart_after=5, init="keep")
    result = search(model, cfg)
    assert result.restarts > 0
    assert counts["set_all"] == result.restarts


# ---------------------------------------------------------------------------
# golden replays: any refactor must reproduce these runs byte for byte


def replay_digest(result):
    payload = repr(
        (sorted(result.colours.items()), result.trace, result.iterations, result.violation)
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_2d(seed, iters):
    instance = generate(seed=42, width=10, height=10, colours=4, flights=1)
    model = instance.build()
    cfg = replace(instance.search, seed=seed, max_iterations=iters)
    return search(model, cfg)


def _run_2d_kept(seed, iters, restart_after=64):
    """The 2D instance from a scattered colouring that ``init="keep"``
    takes as the first start; every restart grows regions."""
    instance = generate(seed=42, width=10, height=10, colours=4, flights=1)
    model = instance.build()
    model.set_all(random_colours(random.Random(seed), model.state.geometry, 4))
    cfg = replace(
        instance.search, seed=seed, max_iterations=iters, init="keep", restart_after=restart_after
    )
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


def _mixed(seed, iters):
    """Compact mode B, non-border and bounded alongside the default kinds;
    the compact budget is tight enough that its violation rises and falls.
    The model and the config."""
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
    return instance.build(), replace(instance.search, seed=seed, max_iterations=iters)


def _paper_fast(seed, iters):
    """The benchmark self-test's instance under the paper-fast estimate,
    whose count drifts from the true one as splits go unseen; the model
    and the config."""
    instance = generate(seed=1, width=12, height=12, colours=5, flights=3, balanced_share=0.03)
    model = instance.build(mode_override="paper-fast")
    return model, replace(instance.search, seed=seed, max_iterations=iters)


def _run_dwell(seed, iters, relop=">=", threshold=120, hard=()):
    """Three flights' stretch-sums, all under one relation and threshold."""
    instance = generate(seed=23, width=10, height=10, colours=4, flights=3)
    for spec in instance.constraints:
        if spec.kind == "stretchsum":
            spec.params.update(relop=relop, threshold=threshold)
    model = instance.build()
    cfg = replace(instance.search, seed=seed, max_iterations=iters, hard=hard)
    return search(model, cfg)


def _run_counter_only(seed, iters):
    """A lone exact connected "=" 5 on 4 colours: while every class is
    connected only the counter relation is violated, no vertex conflicts,
    and the focus comes from the border scan of an empty pool."""
    st = ColourState(grid(6, 6, dim=2), 4)
    model = Model(st, [(ConnectedConstraint(st, "=", 5, id="connected"), 1)])
    return search(model, SearchConfig(seed=seed, max_iterations=iters))


def _searched_counter(seed, iters):
    """A searchable component counter in 5..9 beside a tight balance, so a
    counter move joins every move list; the model and the config."""
    instance = generate(seed=17, width=8, height=8, colours=5, flights=2, balanced_share=0.01)
    for spec in instance.constraints:
        if spec.kind == "connected":
            spec.params.update(counter_min=5, counter_max=9)
    return instance.build(), replace(instance.search, seed=seed, max_iterations=iters)


def _fewer_components(seed, iters):
    """Exact connectedness asking for 3 components of 6 colours: from six
    grown regions, colours go unused partway through the search."""
    st = ColourState(grid(5, 5, dim=2), 6)
    model = Model(st, [(ConnectedConstraint(st, "=", 3, id="connected"), 1)])
    return model, SearchConfig(seed=seed, max_iterations=iters)


GOLDEN = [
    # exact connectedness from grown regions: short runs to zero
    (lambda: _run_2d(1, 1500), "9660a2914c50ad2bd80c2d746c01dae5dd5fe9bd6740d26a39d93abf3e33ddd3"),
    (lambda: _run_2d(2, 1500), "1a6fa7ad1f022e96b91c53e6a66c89d3279c9f34ebade2a5ba83ddf68dc2211d"),
    (lambda: _run_2d(3, 1500), "607f54cf774b8faeae01932f8e126f786e6423f53cf8d918652584dedf92b1a5"),
    # exact connectedness from a kept scattered colouring of some fifty
    # components, merging before the restart that grows regions
    (lambda: _run_2d_kept(1, 600), "c7ac4ddd69586fce79bf1ef43fe7ba461a09aa7e2082550eac1ad3d53a3f5034"),
    (lambda: _run_2d_kept(2, 600), "12a20a4cd333cef943f91165ea737713788a0edfebdfd8d0389f20885ad2ce87"),
    # the paper-fast estimate, false counts included: it claims a false 0
    (
        lambda: search(*_paper_fast(2, 300)),
        "e852d41149dcc99c58b8ef515b7e224698a5264365a5272a508e7acd0919411f",
    ),
    # 3D, compact mode A, restarting on a Luby schedule of unit 15
    (lambda: _run_3d_compact_a(1, 300), "50d09ac8488ec15d6b5cfd9e562b4c58765a915ccf1f563c77f5f04aff8f121a"),
    # the same run with the exact mode A probe
    (
        lambda: _run_3d_compact_a(1, 300, probe="exact"),
        "8b36cd91ebf33bddb0f79c8b2e2cc8ef6c18df1e75a4dfea46e5ade010bf0632",
    ),
    # compact mode B, non-border and bounded
    (
        lambda: search(*_mixed(1, 800)),
        "1ffbe9df7f6de5c185b257b32fa9bca05d781546adcbfa40e576ace1a33bec56",
    ),
    (
        lambda: search(*_mixed(2, 800)),
        "0d0e3b05e3a785b6b60ad343bbf179820b56a901ae06a920953a1032d66bd321",
    ),
    # maximum dwell: every stretch-sum is "<=" a threshold that binds
    (
        lambda: _run_dwell(2, 600, relop="<=", threshold=300),
        "c0454ff91fc75daf29744ee1db2b8d5f529088686e3f291ef7477c400b911930",
    ),
    # a hard stretch-sum: greedy initialisation and the hard-move filter
    (
        lambda: _run_dwell(2, 600, hard=("dwell0",)),
        "bfe0cb292529c8d20b891137ec5eb602ecb732d26d960a9f6e4e5e6ac8a91a21",
    ),
    # an empty conflict pool in 114 of the 297 draws, a partial one in the rest
    (
        lambda: _run_counter_only(1, 300),
        "05ffb258e860665407451eff370f598e24f787c3ecc18d4f1b84324cd1fcd1ee",
    ),
    # a kept first start, then restarts on a Luby schedule of unit 5
    (lambda: _run_2d_kept(1, 600, restart_after=5), "8c26cf5946e98751514d0cd065b0a78db2fe6697201c84bb85cc94bcd8d86526"),
    (lambda: _run_2d_kept(2, 600, restart_after=5), "e02f5f99f2d72e5935dd7ac532d8882c2ba32a152e288d3c6bf15e7e36924064"),
    # a searchable counter's moves in every move list
    (
        lambda: search(*_searched_counter(1, 600)),
        "d1327426d77e6aa43cbad15056461d5efb2c304add768d3cabecfc498917ca28",
    ),
    # colours going unused and becoming candidates, to zero and with restarts
    (
        lambda: search(*_fewer_components(2, 300)),
        "9d69db1459e319b3c3697b72128f8f8cf7281aabad690c9654c42c8c7fe006da",
    ),
    (
        lambda: search(*_fewer_components(3, 300)),
        "94e956111c4209102d98236ea9eba9e276fb9cda5a498ec8718f79c280f440c9",
    ),
]


@pytest.mark.parametrize("case", range(len(GOLDEN)))
def test_golden_replay_digest(case):
    run, expected = GOLDEN[case]
    assert replay_digest(run()) == expected


def _commits(model, cfg, read=lambda model: [m.bit_count() for m in model.state.class_mask]):
    """Each move a search commits, with what ``read`` finds after it, by
    default the class sizes, the popcounts of the class masks."""
    seen = []
    commit = model.commit

    def recorded(move):
        commit(move)
        seen.append((move, read(model)))

    model.commit = recorded
    search(model, cfg)
    return seen


def _miscounted(model):
    """Whether the connected constraint's count differs from a recount."""
    return model.constraint("connected").count != component_counts(model.state)


def test_golden_runs_take_the_paths_they_pin():
    """The searched-counter run commits counter moves, the
    fewer-components runs still use every colour after their first commit
    and later pass through states with an unused one, the paper-fast
    estimate miscounts after some commit, and each mixed run's compact
    violation both rises and falls."""
    assert any(move.kind == "counter" for move, _ in _commits(*_searched_counter(1, 600)))
    for seed in (2, 3):
        unused = [0 in sizes[1:] for _, sizes in _commits(*_fewer_components(seed, 300))]
        assert not unused[0] and any(unused), seed
    assert any(wrong for _, wrong in _commits(*_paper_fast(2, 300), read=_miscounted))
    for seed in (1, 2):
        model, cfg = _mixed(seed, 800)
        i = [c.id for c, _ in model.entries].index("compactness")
        compact = [parts[i] for _, _, parts in search(model, cfg).trace]
        steps = list(zip(compact, compact[1:]))
        assert any(b > a for a, b in steps) and any(b < a for a, b in steps), seed


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
    (lambda: _run_3d_compact_a(1, 300), "6036a0f4551748e875b5ed1475537e1d96247b498774900f96cc1eca3ea038f4"),
    (
        lambda: _run_3d_compact_a(1, 300, probe="exact"),
        "65d206385b1876140e0c7274769822775888219f9b99f70145520e9ea8d96395",
    ),
]


@pytest.mark.parametrize("case", range(len(COARSE)))
def test_coarse_replay_digest(case):
    run, expected = COARSE[case]
    assert coarse_digest(run()) == expected
