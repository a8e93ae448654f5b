"""Search orchestration: weighted constraint registry, probe/commit
protocol, border-move neighbourhood and a tabu min-conflicts loop.

A move recolours one vertex or sets one constraint's counter.  Probes
only read the caches, so probing any move leaves the model unchanged.
The model alone routes a probe or a commit of ``v``, through one
:func:`scope_table`, to the constraints whose scope holds ``v``: the
others' delta is 0 by their scope.  As the state holds no constraint, the
model also rebuilds them after a bulk assignment (:meth:`Model.set_all`).

The conflict pool, the vertices with a positive ``var_violation`` in some
constraint, is maintained rather than scanned: every constraint keeps its
conflicting vertices as a bit mask (``Constraint.conflicts``), and the
state keeps one mask and one size per colour class.  An iteration ORs the
masks in entry order until the union holds every vertex, as a balance
constraint's alone does whenever no colour's sum is exactly the average,
and then draws its focus from the vertex list itself; a partial union is
drawn through a sorted view.  Either way a seeded run draws exactly the
vertex a draw from the sorted pool list would.  The masks are integers
of V bits, so the pool still costs a few big-integer operations that
grow with V, not a call per vertex; a partial union adds a halving of
about log2(V) steps.  An empty pool, where only counter relations are
violated, falls back to scanning every vertex's neighbours for the border.

:func:`search` and :func:`neighbourhood` share one candidate rule: a
vertex may take the colour of a differently coloured neighbour or an
unused colour (``selector="border"``), or any other colour (``"full"``).
:func:`neighbourhood` lists exactly the moves :func:`search` may draw.

An iteration evaluates only what its choice reads.  Probes draw no
random numbers, so the noise coin is flipped before them: a noise
iteration commits a random move and probes nothing.  Only with
``cfg.hard`` is every move probed first, for the filter that keeps the
hard constraints satisfied.  The state's component index keeps a split
search until the next commit, so committing a probed move repeats none.

A run's state lives in :func:`search` alone: the tabu list, keyed by the
moves that would undo recent commits (``Model.commit`` returns them), the
best colouring with its counter values, the trace and the counters that
``cfg.hard`` freezes.  The best colouring is brought up to date from a log
of the assign commits since the last best state, so recording a new best
state costs its commits, not a copy of the colouring.  The colouring is
copied whole only for the first best state after a start or a restart,
which replace the colouring, and for one reached after more than V
commits, where the log stops so that it never outgrows the colouring.
The model holds only the colouring, the constraints and their counters,
so a model can be searched again with any config.  Every iteration ends
with one step that reads each constraint's ``violation()`` once and
derives the trace row, the total and the best colouring from that read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import InitError, InputError
from .state import ColourState, MaskView, grow_regions

#: total violations below this are treated as zero (Compact contributes
#: floats; everything else is integer)
TOLERANCE = 1e-9

#: the search parameters that count something, none of which may be negative
COUNTS = ("max_iterations", "tabu_tenure", "restart_after", "moves_per_iter")

#: the search parameters that name a policy, with their values: the candidate
#: rules of :func:`_candidate_colours` and the starts of :func:`_initialise`
CHOICES = {"neighbourhood": ("border", "full"), "init": ("regions", "random", "keep")}


class Move(NamedTuple):
    """One move; a tuple, so building, hashing and comparing it, as the
    move list and the tabu dict do every iteration, run in C."""

    kind: str
    vertex: Optional[int] = None
    colour: Optional[int] = None
    counter_id: Optional[str] = None
    value: Optional[int] = None

    @classmethod
    def assign(cls, v: int, c: int) -> "Move":
        return cls("assign", v, c)

    @classmethod
    def counter(cls, constraint_id: str, value: int) -> "Move":
        return cls("counter", None, None, constraint_id, value)


@dataclass
class SearchConfig:
    """A search's parameters, in the order and of the types of the
    ``[search]`` keys of an instance file; :func:`check_parameter` checks
    every value, in the file and before a search."""

    seed: int = 0
    max_iterations: int = 20000
    tabu_tenure: int = 8
    restart_after: int = 2000
    moves_per_iter: int = 12
    neighbourhood: str = "border"
    noise: float = 0.08
    init: str = "regions"
    hard: Tuple[str, ...] = ()


@dataclass
class SearchResult:
    colours: Dict[int, int]
    violation: float
    iterations: int
    trace: List[Tuple]
    seed: int
    #: each searchable counter's value in the best state, beside ``colours``
    counters: Dict[str, int]


def scope_table(scoped: Iterable[Tuple[object, Optional[Iterable[int]]]]):
    """Route items to the vertices they apply to.

    ``scoped`` lists ``(item, scope)`` pairs in entry order; a scope of
    ``None`` means every vertex.  Returns the tuple of the global
    items and a dict mapping each vertex of some scope to the tuple of
    every item that applies to it, both in entry order, so
    ``table.get(v, everywhere)`` is what a move of ``v`` reaches.  A
    vertex listed twice in one scope gets the item once, and vertices
    with the same items share one tuple.
    """
    items = []
    everywhere: List[int] = []
    at: Dict[int, List[int]] = {}
    for i, (item, scope) in enumerate(scoped):
        items.append(item)
        if scope is None:
            everywhere.append(i)
            continue
        for v in scope:
            mine = at.setdefault(v, [])
            if not mine or mine[-1] != i:
                mine.append(i)
    # keyed by the scoped items alone: the global ones are the same for all
    shared: Dict[Tuple[int, ...], Tuple] = {}
    table: Dict[int, Tuple] = {}
    for v, mine in at.items():
        key = tuple(mine)
        row = shared.get(key)
        if row is None:
            row = shared[key] = tuple(items[i] for i in sorted(everywhere + mine))
        table[v] = row
    return tuple(items[i] for i in everywhere), table


class Model:
    """A colour state plus weighted constraints and searchable counters."""

    def __init__(
        self,
        state: ColourState,
        constraints: Sequence[Tuple],
        searchable_counters: Optional[Dict[str, Sequence[int]]] = None,
    ):
        self.state = state
        self.entries: List[Tuple] = []
        self.by_id: Dict[str, Tuple] = {}
        for constraint, weight in constraints:
            if weight <= 0:
                raise InputError(
                    f"constraint {constraint.id}: weight must be positive, got {weight}"
                )
            if constraint.id in self.by_id:
                raise InputError(f"duplicate constraint id {constraint.id!r}")
            if constraint.state is not state:
                raise InputError(f"constraint {constraint.id}: built on another state")
            entry = (constraint, weight)
            self.entries.append(entry)
            self.by_id[constraint.id] = entry
        #: the entries a move of each vertex reaches, see :func:`scope_table`
        self._everywhere, self._scoped = scope_table(
            (entry, entry[0].scope()) for entry in self.entries
        )
        self.searchable_counters: Dict[str, Tuple[int, ...]] = {}
        #: each searchable counter's value as built, where a search starts it
        self.built_counters: Dict[str, int] = {}
        for cid, domain in (searchable_counters or {}).items():
            if cid not in self.by_id:
                raise InputError(f"unknown constraint id {cid!r} for counter domain")
            constraint = self.by_id[cid][0]
            if not hasattr(constraint, "probe_counter"):
                raise InputError(f"constraint {cid!r} has no counter variable")
            domain = tuple(domain)
            value = constraint.counter_value
            if value not in domain:
                span = f"{domain[0]}..{domain[-1]}" if domain else "an empty range"
                raise InputError(f"constraint {cid}: counter {value} outside {span}")
            self.searchable_counters[cid] = domain
            self.built_counters[cid] = value

    # measurement -------------------------------------------------------
    def total_violation(self) -> float:
        return sum(w * c.violation() for c, w in self.entries)

    def constraint(self, cid: str):
        return self._entry(cid)[0]

    def _entry(self, cid: str) -> Tuple:
        """The ``(constraint, weight)`` pair of a constraint id."""
        try:
            return self.by_id[cid]
        except KeyError:
            raise InputError(f"unknown constraint id {cid!r}") from None

    # differentiation ----------------------------------------------------
    def probe_parts(self, move: Move) -> Dict[str, float]:
        """Per-constraint weighted deltas of an assign or counter move; an
        assign move leaves out the constraints whose scope does not hold
        its vertex, whose delta is 0."""
        if move.kind == "assign":
            v, colour = move.vertex, move.colour
            return {
                c.id: w * c.probe_assign(v, colour)
                for c, w in self._scoped.get(v, self._everywhere)
            }
        if move.kind == "counter":
            constraint, weight = self._entry(move.counter_id)
            return {constraint.id: weight * constraint.probe_counter(move.value)}
        raise InputError(f"unknown move kind {move.kind!r}")

    # incrementality ------------------------------------------------------
    def assign(self, v: int, c: int) -> None:
        """Commit ``colour(v) := c`` to the state, then, if the colour
        changed, to the constraints whose scope holds ``v``."""
        old = self.state.colour(v)
        self.state.assign(v, c)
        if old != c:
            for constraint, _ in self._scoped.get(v, self._everywhere):
                constraint.commit_assign(v, old, c)

    def set_all(self, colours: Mapping[int, int], *, regions: bool = False) -> None:
        """Bulk assignment (see ``ColourState.set_all``); every constraint
        then rebuilds from scratch."""
        self.state.set_all(colours, regions=regions)
        for constraint, _ in self.entries:
            constraint.rebuild()

    def commit(self, move: Move) -> Move:
        """Apply ``move``; returns the move that takes it back."""
        if move.kind == "assign":
            undo = Move.assign(move.vertex, self.state.colour(move.vertex))
            self.assign(move.vertex, move.colour)
        elif move.kind == "counter":
            constraint = self.constraint(move.counter_id)
            undo = Move.counter(move.counter_id, constraint.counter_value)
            constraint.commit_counter(move.value)
        else:
            raise InputError(f"unknown move kind {move.kind!r}")
        return undo


def neighbourhood(model: Model, selector: str = "border") -> List[Move]:
    """Every move :func:`search` may draw: each vertex's candidate
    recolourings (see :func:`_candidate_colours`), then the counter moves
    (a search with hard constraints leaves out their counters).

    With unused colours, every vertex has a candidate, interior vertices
    of a colour class included, so monochrome states stay escapable.
    """
    check_parameter("neighbourhood", selector)
    state = model.state
    unused = state.unused_colours()
    moves = [
        Move.assign(v, c)
        for v in state.order
        for c in _candidate_colours(model, v, selector, unused)
    ]
    moves.extend(_counter_moves(model))
    return moves


def check_parameter(name: str, value) -> None:
    """Raise an :class:`InputError` naming the search parameter ``name``
    when ``value`` is out of its range: ``noise`` is a probability, the
    :data:`COUNTS` are not negative and each of the :data:`CHOICES` is
    one of its values.  Parameters without a range pass."""
    if name == "noise" and not 0 <= value <= 1:
        raise InputError(f"search parameter noise must lie in [0, 1], got {value!r}")
    if name in COUNTS and value < 0:
        raise InputError(f"search parameter {name} must not be negative, got {value!r}")
    if name in CHOICES and value not in CHOICES[name]:
        raise InputError(f"search parameter {name} {value!r} is not one of {CHOICES[name]}")


def _candidate_colours(model: Model, v: int, selector: str, unused: List[int]) -> List[int]:
    """The colours ``v`` may take, in increasing order: those of its
    differently coloured neighbours plus the unused ones, or with
    ``selector="full"`` every colour but its own."""
    state = model.state
    colour = state.colours()
    cv = colour[v]
    if selector == "full":
        return [c for c in range(1, state.n + 1) if c != cv]
    adjacent = state.geometry.adjacent(v)
    if not unused:
        # most vertices are interior to their class and have no candidate
        for w in adjacent:
            if colour[w] != cv:
                break
        else:
            return []
    cands = {colour[w] for w in adjacent}
    cands.update(unused)
    cands.discard(cv)
    return sorted(cands)


def _counter_moves(model: Model, frozen: Sequence[str] = ()) -> List[Move]:
    """Every other value of each searchable counter not in ``frozen``."""
    moves: List[Move] = []
    for cid, domain in model.searchable_counters.items():
        if cid in frozen:
            continue
        current = model.constraint(cid).counter_value
        moves.extend(Move.counter(cid, value) for value in domain if value != current)
    return moves


def _initialise(model: Model, cfg: SearchConfig, rng: random.Random) -> None:
    state = model.state
    if cfg.init == "random":
        model.set_all({v: rng.randint(1, state.n) for v in state.geometry.vertices})
    elif cfg.init == "regions":
        model.set_all(grow_regions(state.geometry, state.n, rng), regions=True)
    for cid in cfg.hard:
        model.constraint(cid).hard_init(model, rng)
    for cid in cfg.hard:
        if model.constraint(cid).violation() != 0:
            raise InitError(f"hard constraints conflict at initialisation ({cid})")


def search(model: Model, cfg: SearchConfig) -> SearchResult:
    """Tabu min-conflicts over the configured neighbourhood.

    The seed fully determines the run: unless ``cfg.init`` is ``"keep"``,
    it starts from a fresh colouring and from the counter values the
    model was built with.  Returns the best state visited (its colouring
    and its searchable counters' values) and a per-iteration violation
    trace.  ``cfg.hard`` freezes the hard constraints' counters for this
    run only.  Every field of ``cfg``, and each hard id, is checked before
    the model changes or a number is drawn.
    """
    for f in fields(cfg):
        check_parameter(f.name, getattr(cfg, f.name))
    for cid in cfg.hard:
        model.constraint(cid).check_hard()
    rng = random.Random(cfg.seed)
    state = model.state
    entries = model.entries
    hard = set(cfg.hard)
    hard_rows = [i for i, (c, _) in enumerate(entries) if c.id in hard]
    if cfg.init != "keep":
        for cid, value in model.built_counters.items():
            model.constraint(cid).commit_counter(value)
    _initialise(model, cfg, rng)

    trace: List[Tuple] = []
    tabu: Dict[Move, int] = {}  # move -> last iteration it stays tabu
    best_total = math.inf
    best_colours: Dict[int, int] = {}
    # the (vertex, colour) commits since the best state, which bring
    # best_colours up to the next one; None when that one is copied whole
    log: Optional[List[Tuple[int, int]]] = None
    best_counters: Dict[str, int] = {}
    since_best = 0
    restarted = False
    vertices = state.order
    full_pool = (1 << len(vertices)) - 1
    iteration = 0

    while True:
        # the step every iteration ends with, and the run starts with: one
        # violation() read per constraint, summed as total_violation does
        violations = tuple(c.violation() for c, _ in entries)
        for i in hard_rows:
            if violations[i] != 0:
                raise RuntimeError(f"hard constraint {entries[i][0].id!r} violated after commit")
        total = sum(w * x for (_, w), x in zip(entries, violations))
        trace.append((iteration, total, violations))
        improved = total < best_total - TOLERANCE
        if improved:
            best_total = total
            if log is None:
                best_colours = state.snapshot()
            else:
                best_colours.update(log)
            log = []
            best_counters = {
                cid: model.constraint(cid).counter_value for cid in model.searchable_counters
            }
        since_best = 0 if improved or restarted else since_best + 1

        if iteration >= cfg.max_iterations:
            break
        iteration += 1
        # a run at zero still counts the iteration that finds it there
        if total <= TOLERANCE:
            break
        restarted = since_best > cfg.restart_after
        if restarted:
            _initialise(model, cfg, rng)
            log = None
            tabu.clear()
            continue

        unused = state.unused_colours()
        # weights are positive, so a vertex conflicts in the weighted sum
        # exactly when it conflicts in some constraint
        mask = 0
        for constraint, _ in entries:
            mask |= constraint.conflicts()
            if mask == full_pool:
                break
        # rng.choice draws one index from either, and both map it to one vertex
        pool = vertices if mask == full_pool else MaskView(vertices, mask)
        if not pool:
            pool = [
                v
                for v in vertices
                if any(state.colour(w) != state.colour(v)
                       for w in state.geometry.adjacent(v))
            ] or vertices

        focus = rng.choice(pool)
        moves = [Move.assign(focus, c) for c in _candidate_colours(model, focus, cfg.neighbourhood, unused)]
        for _ in range(cfg.moves_per_iter):
            v = rng.choice(vertices)
            cands = _candidate_colours(model, v, cfg.neighbourhood, unused)
            if cands:
                moves.append(Move.assign(v, rng.choice(cands)))
        moves.extend(_counter_moves(model, hard))

        evaluated = None
        if hard:
            # the filter needs every probe; the choice reuses their sums
            evaluated = []
            for move in moves:
                parts = model.probe_parts(move)
                if any(abs(parts.get(cid, 0)) > TOLERANCE for cid in hard):
                    continue
                evaluated.append((move, sum(parts.values())))
            moves = [move for move, _ in evaluated]
        if not moves:
            continue

        # probes draw no random numbers, so flipping the noise coin before
        # them leaves every draw as it was, and a noise draw probes nothing
        if cfg.noise > 0 and rng.random() < cfg.noise:
            move = moves[rng.randrange(len(moves))]
        else:
            if evaluated is None:
                evaluated = [(move, sum(model.probe_parts(move).values())) for move in moves]
            allowed = [
                (move, delta)
                for move, delta in evaluated
                if tabu.get(move, 0) < iteration or total + delta < best_total - TOLERANCE
            ] or evaluated
            best_delta = min(d for _, d in allowed)
            ties = [m for m, d in allowed if abs(d - best_delta) <= TOLERANCE]
            move = ties[rng.randrange(len(ties))]
        tabu[model.commit(move)] = iteration + cfg.tabu_tenure
        if log is not None and move.kind == "assign":
            log.append((move.vertex, move.colour))
            # past V commits, copying the colouring is the cheaper record
            if len(log) > len(vertices):
                log = None

    return SearchResult(
        colours=best_colours,
        violation=best_total,
        iterations=iteration,
        trace=trace,
        seed=cfg.seed,
        counters=best_counters,
    )
