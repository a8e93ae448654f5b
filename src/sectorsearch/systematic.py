"""Systematic-search companions: domain stores, the one-dimensional
connectedness propagator, the stretch-sum checker automaton, and the
brute-force oracles everything else is validated against."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .errors import InputError
from .geometry import Geometry, OrderedPath
from .relation import holds
from .state import class_components

Event = Tuple[int, int]  # (vertex, pruned colour)


@dataclass
class DomainStore:
    """Per-vertex colour domains plus an optional counter domain."""

    doms: Dict[int, Set[int]]
    counter_dom: Optional[Set[int]] = None
    failed: bool = False

    def prune(self, v: int, value: int) -> bool:
        """Remove ``value`` from ``doms[v]``; flags failure on wipe-out."""
        d = self.doms[v]
        if value not in d:
            return False
        d.discard(value)
        if not d:
            self.failed = True
        return True

    def singleton(self, v: int) -> Optional[int]:
        d = self.doms[v]
        if len(d) == 1:
            return next(iter(d))
        return None

    def copy(self) -> "DomainStore":
        return DomainStore(
            {v: set(d) for v, d in self.doms.items()},
            None if self.counter_dom is None else set(self.counter_dom),
            self.failed,
        )


def contiguity_check(colours: Sequence[int]) -> bool:
    """True iff every colour's occurrences form one contiguous block."""
    closed: Set[int] = set()
    previous = None
    for c in colours:
        if c != previous:
            if c in closed:
                return False
            if previous is not None:
                closed.add(previous)
            previous = c
    return True


def _apply_rules_at(store: DomainStore, order: List[int], i: int) -> List[Event]:
    """The five pruning rules for a trigger vertex with a singleton domain."""
    events: List[Event] = []
    doms = [store.doms[v] for v in order]
    c = next(iter(doms[i]))
    m = len(order)

    def prune(j: int, value: int) -> None:
        if store.prune(order[j], value):
            events.append((order[j], value))

    left = next((j for j in range(i - 1, -1, -1) if c not in doms[j]), None)
    if left is not None:
        for j in range(left):
            prune(j, c)
            if store.failed:
                return events
        if len(doms[left]) == 1:
            d = next(iter(doms[left]))
            for j in range(i + 1, m):
                prune(j, d)
                if store.failed:
                    return events
    right = next((j for j in range(i + 1, m) if c not in doms[j]), None)
    if right is not None:
        for j in range(right + 1, m):
            prune(j, c)
            if store.failed:
                return events
        if len(doms[right]) == 1:
            d = next(iter(doms[right]))
            for j in range(i):
                prune(j, d)
                if store.failed:
                    return events
    # interior fill: everything between two forced occurrences is forced
    left_forced = next((j for j in range(i + 1) if doms[j] == {c}), i)
    right_forced = next((j for j in range(m - 1, i - 1, -1) if doms[j] == {c}), i)
    for j in range(left_forced + 1, right_forced):
        for value in sorted(doms[j] - {c}):
            prune(j, value)
            if store.failed:
                return events
    return events


def _support_filter(store: DomainStore, order: List[int]) -> List[Event]:
    """Complete the rule cascade to the domain-consistent fixpoint.

    A satisfying word is a sequence of runs with pairwise distinct
    colours.  Forward and backward reachability over (current colour,
    set of finished colours) states yields the exact support set of every
    value: value x at position i is supported when some forward and some
    backward state for x have disjoint finished sets.  The two singleton
    cascades the rules miss on arbitrarily pre-pruned stores (forced
    occurrences interacting across non-singleton domains) fall out here.
    """
    doms = [store.doms[v] for v in order]
    if not doms or store.failed:
        return []
    colours = sorted(set().union(*doms))
    if len(colours) > 12:
        raise InputError(
            f"domain-consistent filtering supports at most 12 colours, got {len(colours)}"
        )
    bit = {c: 1 << k for k, c in enumerate(colours)}
    m = len(order)

    def sweep(indices):
        states: List[Dict[int, Set[int]]] = []
        current = {c: {0} for c in doms[indices[0]]}
        states.append(current)
        for i in indices[1:]:
            nxt: Dict[int, Set[int]] = {}
            for cur, masks in current.items():
                curbit = bit[cur]
                for c in doms[i]:
                    if c == cur:
                        nxt.setdefault(c, set()).update(masks)
                    else:
                        cbit = bit[c]
                        bucket = nxt.setdefault(c, set())
                        for mask in masks:
                            if not mask & cbit:
                                bucket.add(mask | curbit)
            current = nxt
            states.append(current)
        return states

    forward = sweep(list(range(m)))
    backward = list(reversed(sweep(list(range(m - 1, -1, -1)))))

    events: List[Event] = []
    for i in range(m):
        for x in sorted(doms[i]):
            fwd = forward[i].get(x, ())
            bwd = backward[i].get(x, ())
            if not any(a & b == 0 for a in fwd for b in bwd):
                store.prune(order[i], x)
                events.append((order[i], x))
    return events


def propagate_connected_1d(store: DomainStore, path: OrderedPath, v: int) -> List[Event]:
    """Propagate a singleton domain along the path, to the
    domain-consistent fixpoint.

    The trigger vertex must already have a singleton domain.  The five
    pruning rules run first and cascade (interior fill creates new
    singletons) until a full pass over all singleton vertices changes
    nothing; an exact support filter then removes any value the rules
    cannot reach on arbitrarily pre-pruned stores.  Returns the pruning
    events in order; a wiped-out domain sets ``store.failed``.
    """
    order = list(path.interior)
    if v not in order:
        raise InputError(f"vertex {v} is not on the path")
    if store.singleton(v) is None:
        raise InputError(f"trigger vertex {v} does not have a singleton domain")
    events = _apply_rules_at(store, order, order.index(v))
    if store.failed:
        return events
    changed = bool(events)
    while changed:
        changed = False
        for i, u in enumerate(order):
            if store.singleton(u) is None:
                continue
            new_events = _apply_rules_at(store, order, i)
            if store.failed:
                events.extend(new_events)
                return events
            if new_events:
                events.extend(new_events)
                changed = True
    events.extend(_support_filter(store, order))
    return events


def propagate_connected_path(store: DomainStore, path: OrderedPath) -> List[Event]:
    """Run the 1D propagator from the first singleton vertex, or the
    support filter alone when there is none: either reaches the
    domain-consistent fixpoint, where a run from any other singleton
    prunes nothing."""
    if store.failed:
        return []
    first = next((u for u in path.interior if store.singleton(u) is not None), None)
    if first is None:
        return _support_filter(store, list(path.interior))
    return propagate_connected_1d(store, path, first)


def narrow_counter_domain(store: DomainStore, path: OrderedPath) -> List[int]:
    """Restrict the counter domain to the achievable stretch-count range.

    The bounds come from a single scan: a forced boundary (disjoint
    neighbouring domains) raises the minimum, a forcibly equal pair lowers
    the maximum.  Sound but not complete; meant for equality counters.
    """
    if store.counter_dom is None:
        return []
    order = list(path.interior)
    if not order:
        return []
    low, high = 1, 1
    for a, b in zip(order, order[1:]):
        da, db = store.doms[a], store.doms[b]
        if not (da & db):
            low += 1
        if not (len(da) == 1 and da == db):
            high += 1
    removed = sorted(n for n in store.counter_dom if not low <= n <= high)
    for n in removed:
        store.counter_dom.discard(n)
    if not store.counter_dom:
        store.failed = True
    return removed


def colour_graph_cp(store: DomainStore, g: Geometry) -> Set[Tuple[int, int]]:
    """Edges whose endpoints may still take a common colour."""
    return {
        (v, w)
        for v, w in g.edges()
        if store.doms[v] & store.doms[w]
    }


def connected_feasibility(
    store: DomainStore,
    g: Geometry,
    relop: str,
    counter_dom: Set[int],
) -> str:
    """Necessary-condition test: ``failed``, ``subsumed`` or ``feasible``.

    Sound by construction: a store containing a satisfying colouring is
    never reported failed.  No pruning is attempted.
    """
    if store.failed:
        return "failed"
    vertices = sorted(store.doms)
    colours = sorted(set().union(*store.doms.values()))
    required = {
        c: {v for v in vertices if store.doms[v] == {c}} for c in colours
    }
    possible = {c: {v for v in vertices if c in store.doms[v]} for c in colours}

    for c in colours:
        if not required[c]:
            continue
        comps = class_components(g, possible[c])
        touched = sum(1 for comp in comps if comp & required[c])
        if touched >= 2:
            return "failed"

    all_singleton = all(len(store.doms[v]) == 1 for v in vertices)
    if all_singleton:
        ncc = 0
        fragmented = False
        for c in colours:
            comps = class_components(g, required[c])
            ncc += len(comps)
            if len(comps) > 1:
                fragmented = True
        ok = not fragmented and any(holds(relop, ncc, n) for n in counter_dom)
        return "subsumed" if ok else "failed"

    low = max(1, sum(1 for c in colours if required[c]))
    high = min(len([c for c in colours if possible[c]]), len(vertices))
    if not any(
        holds(relop, k, n) for n in counter_dom for k in range(low, high + 1)
    ):
        return "failed"
    return "feasible"


# ---------------------------------------------------------------------------
# stretch-sum checker automaton

def signature_vars(colours: Sequence[int]) -> List[int]:
    """Adjacent-equality signature: 1 where a vertex keeps its
    predecessor's colour, 0 where a new stretch starts."""
    return [int(colours[i] == colours[i - 1]) for i in range(1, len(colours))]


def stretchsum_dfa_check(
    colours: Sequence[int],
    values: Sequence[int],
    relop: str,
    t: int,
) -> bool:
    """Single-state counter automaton: accumulate along a stretch, test the
    sum at each colour change and once more at the end."""
    if len(colours) != len(values):
        raise InputError(f"{len(colours)} colours for {len(values)} values")
    if not colours:
        return True
    k = values[0]
    for i in range(1, len(colours)):
        if colours[i] == colours[i - 1]:
            k += values[i]
        else:
            if not holds(relop, k, t):
                return False
            k = values[i]
    return holds(relop, k, t)


# ---------------------------------------------------------------------------
# brute force

def brute_force_solve(model, limit: int = 10) -> List[Dict[int, int]]:
    """All total colourings satisfying every constraint's semantics.

    Exhaustive; guarded by instance-size preconditions: at most ``limit``
    vertices and 4 colours.  Each colouring
    recolours, through the state's ``assign``, only the vertices the
    previous one coloured differently; ``check()`` reads the colours
    alone, so no constraint hears of it.  The model's colouring and
    caches are restored afterwards, through ``model.set_all``.
    """
    state = model.state
    vertices = sorted(state.geometry.vertices)
    if len(vertices) > limit:
        raise InputError(f"{len(vertices)} vertices exceed the oracle limit {limit}")
    if state.n > 4:
        raise InputError(f"{state.n} colours exceed the oracle limit 4")
    original = state.snapshot()
    solutions: List[Dict[int, int]] = []
    previous = [original[v] for v in vertices]
    for combo in itertools.product(range(1, state.n + 1), repeat=len(vertices)):
        for v, old, c in zip(vertices, previous, combo):
            if old != c:
                state.assign(v, c)
        previous = combo
        if all(constraint.check() for constraint, _ in model.entries):
            solutions.append(dict(zip(vertices, combo)))
    model.set_all(original)
    return solutions


def brute_force_filter(
    constraint_check: Callable[[Dict[int, int]], bool],
    store: DomainStore,
) -> DomainStore:
    """Domain-consistent fixpoint for a single constraint, by enumeration.

    Keeps a value exactly when it appears in some assignment drawn from
    the current domains that satisfies the check.
    """
    vertices = sorted(store.doms)
    supported: Dict[int, Set[int]] = {v: set() for v in vertices}
    domains = [sorted(store.doms[v]) for v in vertices]
    for combo in itertools.product(*domains):
        assignment = dict(zip(vertices, combo))
        if constraint_check(assignment):
            for v, value in assignment.items():
                supported[v].add(value)
    failed = any(not supported[v] for v in vertices)
    return DomainStore(
        {v: supported[v] for v in vertices},
        None if store.counter_dom is None else set(store.counter_dom),
        failed,
    )
