"""Search orchestration: weighted constraint registry, probe/commit
protocol, border-move neighbourhood and a min-conflicts loop.

A move recolours one vertex or sets one constraint's counter.  Probes
only read the caches, so probing any move leaves the model unchanged.
The model alone routes a probe or a commit of ``v``, through one
:func:`scope_table`, to the constraints whose scope holds ``v``: the
others' delta is 0 by their scope.  As the state holds no constraint, the
model also rebuilds them after a bulk assignment (:meth:`Model.set_all`).

The conflict pool is the union of the constraints' conflict masks
(``Constraint.conflicts``): the vertices with a positive
``var_violation`` in some violated constraint, where exact
connectedness marks only its stray fragments, the vertices outside their
colour's largest component.  A met constraint adds nothing, so the focus
is drawn from what is wrong (min-conflicts, Minton et al. 1992).  The
pool is maintained rather than scanned: every constraint keeps its mask,
the state keeps one mask per colour class, and the component index one
mask per component, from which exact connectedness works out its stray
fragments on a commit that can change them.  An iteration
ORs the masks in entry order until the union holds every vertex, as a
violated balance constraint's alone does whenever no colour's sum is
exactly the average, and then draws its focus from the vertex list
itself; a partial union is drawn through a sorted view.  Either way a
seeded run draws exactly the vertex a draw from the sorted pool list
would.  The per-colour sum kinds keep the set of their met colours up to
date on each commit, so their mask is the all-vertices mask XOR the met
classes, with no penalty computed on the read.  The masks are integers of V bits, so the pool
still costs a few big-integer operations that grow with V, not a call
per vertex; a partial union adds a halving of about log2(V) steps.  An
empty pool, where only counter relations are violated, falls back to the
vertices with a differently coloured neighbour, found from the class
masks (``ColourState.border_mask``).

:func:`search` and :func:`neighbourhood` share one candidate rule, made
by :func:`_candidate_rule`: a vertex may take the colour of a differently
coloured neighbour or an unused colour.  The rule holds the state's colour
view, which follows every commit and restart, and the geometry's
adjacency table, so a search makes it once, as it binds each constraint's
``violation`` and ``conflicts`` reads, the weights and the draws once.
:func:`neighbourhood` lists exactly the moves :func:`search` may draw.

An iteration probes each move it drew once, skips a move that would
violate a hard constraint, and commits a least-delta move of the rest,
ties broken by one draw (min-conflicts with restarts, Minton et al.
1992).  The state's component index keeps a split search until the next
commit, so committing a probed move repeats none.

A stalled run restarts on the Luby schedule (Luby, Sinclair & Zuckerman,
1993) with ``cfg.restart_after`` as its unit: the k-th restart comes once
more than ``restart_after * _luby(k)`` iterations went by without a new
best since the start or the last restart.  The wait is worked out once
per start, so an iteration still tests one comparison.

A run's state lives in :func:`search` alone: the best colouring with its
counter values, the trace and the counters that ``cfg.hard`` freezes.
The best colouring is brought up to date from a log of the assign
commits since the last best state, so recording a new best state costs
its commits, not a copy of the colouring.  The colouring is
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
from operator import mul
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import InitError, InputError
from .state import ColourState, MaskView, grow_regions

#: total violations below this are treated as zero (Compact contributes
#: floats; everything else is integer)
TOLERANCE = 1e-9

#: the search parameters that count something, none of which may be negative
COUNTS = ("max_iterations", "restart_after", "moves_per_iter")

#: the search parameters that name a policy, with their values: the first
#: start grows regions or keeps the model's colouring (see :func:`search`)
CHOICES = {"init": ("regions", "keep")}


class Move(NamedTuple):
    """One move; a tuple, so building it, as the move list does every
    iteration, runs in C."""

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
    every value, in the file and before a search.

    ``restart_after`` is the unit of the Luby restart schedule: the k-th
    restart of a run waits for more than ``restart_after * _luby(k)``
    iterations without a new best (see :func:`search`).  ``init`` names
    the first start only: every restart grows regions."""

    seed: int = 0
    max_iterations: int = 20000
    restart_after: int = 64
    moves_per_iter: int = 12
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
    #: the restarts of the run, the starts after the first
    restarts: int


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

    def set_all(self, colours: Mapping[int, int]) -> None:
        """Bulk assignment (see ``ColourState.set_all``); every constraint
        then rebuilds from scratch."""
        self.state.set_all(colours)
        for constraint, _ in self.entries:
            constraint.rebuild()

    def commit(self, move: Move) -> None:
        """Apply ``move``."""
        if move.kind == "assign":
            self.assign(move.vertex, move.colour)
        elif move.kind == "counter":
            self.constraint(move.counter_id).commit_counter(move.value)
        else:
            raise InputError(f"unknown move kind {move.kind!r}")


def neighbourhood(model: Model) -> List[Move]:
    """Every move :func:`search` may draw: each vertex's candidate
    recolourings (see :func:`_candidate_rule`), then the counter moves
    (a search with hard constraints leaves out their counters).

    With unused colours, every vertex has a candidate, interior vertices
    of a colour class included, so monochrome states stay escapable.
    """
    state = model.state
    candidates = _candidate_rule(state)
    unused = state.unused_colours()
    moves = [Move("assign", v, c) for v in state.order for c in candidates(v, unused)]
    moves.extend(_counter_moves(model))
    return moves


def check_parameter(name: str, value) -> None:
    """Raise an :class:`InputError` naming the search parameter ``name``
    when ``value`` is out of its range: the :data:`COUNTS` are not
    negative, each of the :data:`CHOICES` is one of its values and
    ``hard`` names no id twice.  Parameters without a range pass."""
    if name == "hard":
        for i, cid in enumerate(value):
            if cid in value[:i]:
                raise InputError(f"search parameter hard names {cid!r} twice")
    if name in COUNTS and value < 0:
        raise InputError(f"search parameter {name} must not be negative, got {value!r}")
    if name in CHOICES and value not in CHOICES[name]:
        raise InputError(f"search parameter {name} {value!r} is not one of {CHOICES[name]}")


def _candidate_rule(state: ColourState) -> Callable[[int, List[int]], List[int]]:
    """The rule ``(v, unused) -> colours`` giving the colours ``v`` may
    take, in increasing order: those of its differently coloured
    neighbours plus the ``unused`` ones.  It holds the state's colour
    view, which follows every commit and ``set_all``, and the geometry's
    adjacency table, so a search builds it once."""
    colour = state.colours()
    adjacency = state.geometry.adjacency()

    def border(v: int, unused: List[int]) -> List[int]:
        cv = colour[v]
        adjacent = adjacency[v]
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

    return border


def _counter_moves(model: Model, frozen: Sequence[str] = ()) -> List[Move]:
    """Every other value of each searchable counter not in ``frozen``."""
    moves: List[Move] = []
    for cid, domain in model.searchable_counters.items():
        if cid in frozen:
            continue
        current = model.constraint(cid).counter_value
        moves.extend(Move.counter(cid, value) for value in domain if value != current)
    return moves


def _luby(k: int) -> int:
    """The k-th term (k >= 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ...:
    2**(j-1) when k = 2**j - 1 ends a block, and otherwise, for
    2**(j-1) <= k < 2**j - 1, the term k - (2**(j-1) - 1) of the blocks
    that repeat."""
    while True:
        j = k.bit_length()
        if k == (1 << j) - 1:
            return 1 << (j - 1)
        k -= (1 << (j - 1)) - 1


def _initialise(model: Model, cfg: SearchConfig, rng: random.Random, regrow: bool = True) -> None:
    """Grow a fresh colouring unless ``regrow`` is false, then satisfy the hard constraints."""
    if regrow:
        model.set_all(grow_regions(model.state.geometry, model.state.n, rng))
    for cid in cfg.hard:
        model.constraint(cid).hard_init(model, rng)
    for cid in cfg.hard:
        if model.constraint(cid).violation() != 0:
            raise InitError(f"hard constraints conflict at initialisation ({cid})")


def search(model: Model, cfg: SearchConfig) -> SearchResult:
    """Min-conflicts over the border-move neighbourhood.

    The seed fully determines the run: unless ``cfg.init`` is ``"keep"``,
    it starts from a fresh colouring and from the counter values the
    model was built with; every restart grows a fresh colouring.  Returns
    the best state visited (its colouring and its searchable counters'
    values) and a per-iteration violation trace.  ``cfg.hard`` freezes
    the hard constraints' counters for this run only.  Every field of
    ``cfg``, and each hard id, is checked before the model changes or a
    number is drawn.
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
    if cfg.init == "regions":
        for cid, value in model.built_counters.items():
            model.constraint(cid).commit_counter(value)
    _initialise(model, cfg, rng, regrow=cfg.init == "regions")

    # what every iteration reads, looked up once: the constraints' bound
    # reads, the weights, the candidate rule and the draws
    violation_reads = [c.violation for c, _ in entries]
    conflict_reads = [c.conflicts for c, _ in entries]
    weights = [w for _, w in entries]
    candidates = _candidate_rule(state)
    counters = bool(model.searchable_counters)
    choice = rng.choice
    probe_parts = model.probe_parts
    trace: List[Tuple] = []
    best_total = math.inf
    best_colours: Dict[int, int] = {}
    # the (vertex, colour) commits since the best state, which bring
    # best_colours up to the next one; None when that one is copied whole
    log: Optional[List[Tuple[int, int]]] = None
    best_counters: Dict[str, int] = {}
    since_best = 0
    restarted = False
    restarts = 0
    # the iterations without a new best after which the next restart comes
    wait = cfg.restart_after * _luby(1)
    vertices = state.order
    full_pool = state.everyone
    iteration = 0

    while True:
        # the step every iteration ends with, and the run starts with: one
        # violation() read per constraint, summed as total_violation does
        violations = tuple([read() for read in violation_reads])
        for i in hard_rows:
            if violations[i] != 0:
                raise RuntimeError(f"hard constraint {entries[i][0].id!r} violated after commit")
        total = sum(map(mul, weights, violations))
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
        restarted = since_best > wait
        if restarted:
            restarts += 1
            wait = cfg.restart_after * _luby(restarts + 1)
            _initialise(model, cfg, rng)
            log = None
            continue

        unused = state.unused_colours()
        # weights are positive, so a vertex conflicts in the weighted sum
        # exactly when it conflicts in some constraint
        mask = 0
        for conflicts in conflict_reads:
            mask |= conflicts()
            if mask == full_pool:
                break
        # rng.choice draws one index from either, and both map it to one vertex
        pool = vertices if mask == full_pool else MaskView(vertices, mask)
        if not pool:
            pool = MaskView(vertices, state.border_mask()) or vertices

        focus = choice(pool)
        moves = [Move("assign", focus, c) for c in candidates(focus, unused)]
        for _ in range(cfg.moves_per_iter):
            v = choice(vertices)
            cands = candidates(v, unused)
            if cands:
                moves.append(Move("assign", v, choice(cands)))
        if counters:
            moves.extend(_counter_moves(model, hard))

        evaluated = []
        for move in moves:
            parts = probe_parts(move)
            if hard and any(abs(parts.get(cid, 0)) > TOLERANCE for cid in hard):
                continue
            evaluated.append((move, sum(parts.values())))
        if not evaluated:
            continue
        best_delta = min(d for _, d in evaluated)
        ties = [m for m, d in evaluated if abs(d - best_delta) <= TOLERANCE]
        move = ties[rng.randrange(len(ties))]
        model.commit(move)
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
        restarts=restarts,
    )
