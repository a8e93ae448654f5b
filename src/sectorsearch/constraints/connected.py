"""Connectedness: component counting per colour plus a counter relation.

The constraint holds when the total number of same-colour connected
components relates to the counter and no colour is fragmented.  Two
probing/updating modes exist:

* ``exact`` (default): the counts are those of the state's component
  index (:class:`sectorsearch.state.ComponentIndex`), which every commit
  keeps up to date before the constraint hears of it, so a commit has
  nothing left to do.  A probe of ``v`` counts the distinct labels among
  v's neighbours of the new colour, which costs O(degree), and asks the
  index's split search how many pieces v's old component falls into.
  That search first groups v's neighbours in the component by common
  neighbours there, which answers "one piece" after O(degree^2) reads
  when they are all linked; otherwise one loop runs interleaved
  searches, one per group, and a search that meets another takes it
  over.  They cost the smaller sides, not the colour class, plus at most
  one more pass over a group per take-over.
  Around that search a probe does O(degree) integer work; the relation
  is resolved once, at construction.
  Deltas are exact under arbitrary moves, articulation splits and
  multi-component merges included.
* ``paper-fast``: the literal constant-per-neighbour estimate.  It tests
  only whether the moved vertex starts or ends a component among its
  neighbours, so it miscounts splits and merges; the engine keeps it for
  cheap probing and for measuring how often the estimate diverges.  Its
  commits use the estimate too, on counts of its own.

Its conflicts are the vertices a repair should move.  In exact mode
they are the stray fragments, the vertices outside their colour's
largest component (a tie goes to the component holding the
lowest-ranked vertex), a mask the index works out from its component
masks, reading their popcounts, on the first read after a commit that
changed a colour with more than one component; ``var_violation`` keeps
the paper's per-colour formula.
Paper-fast mode reports the whole class of every colour its own counts
call fragmented.

The constraint exposes only the local-search protocol; component labels,
masks, merges and splits are read from ``state.component_index()``.
"""

from __future__ import annotations

import random
from typing import Dict, Set

from ..errors import InitError, InputError
from ..relation import OPS, check_relop, holds
from ..state import ColourState, ComponentCounts, class_components, grow_regions
from .base import Constraint

MODES = ("exact", "paper-fast")


def component_counts(state: ColourState) -> Dict[int, int]:
    """Cache-free count of the components of every colour ``1..n``."""
    members: Dict[int, Set[int]] = {c: set() for c in range(1, state.n + 1)}
    for v in state.geometry.vertices:
        members[state.colour(v)].add(v)
    return {c: len(class_components(state.geometry, vs)) for c, vs in members.items()}


def connected_check(state: ColourState, relop: str, n_val: int) -> bool:
    """Cache-free semantics: component count relates to ``n_val`` and every
    colour has at most one component."""
    counts = component_counts(state).values()
    return holds(relop, sum(counts), n_val) and all(k <= 1 for k in counts)


class ConnectedConstraint(Constraint):
    def __init__(
        self,
        state: ColourState,
        relop: str,
        counter: int,
        mode: str = "exact",
        id: str = "connected",
    ):
        super().__init__(state)
        self.relop = check_relop(relop)
        # resolved once: an exact probe compares twice
        self._holds = OPS[self.relop]
        self.counter_value = int(counter)
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
        self.mode = mode
        self.id = id
        self.rebuild()

    def rebuild(self) -> None:
        if self.mode == "exact":
            self.counts: ComponentCounts = self.state.component_index()
        else:
            self.counts = ComponentCounts(component_counts(self.state))

    @property
    def ncc(self) -> int:
        return self.counts.total

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self.var_violation_counter() + self.counts.excess

    def var_violation_counter(self) -> int:
        return 1 - self._holds(self.ncc, self.counter_value)

    def var_violation(self, v: int) -> int:
        return self.counts.count[self.state.colour(v)] - 1

    def conflicts(self) -> int:
        """Exact: the stray fragments, the vertices outside their colour's
        largest component, kept by the index.  Paper-fast: the whole class
        of every colour its own counts call fragmented."""
        if self.mode == "exact":
            return self.counts.stray
        return self.state.classes_mask(c for c, k in self.counts.count.items() if k > 1)

    def check(self) -> bool:
        return connected_check(self.state, self.relop, self.counter_value)

    # differentiation ----------------------------------------------------
    def _fast_pm(self, v: int, new: int, old: int):
        neighbours = self.state.geometry.adjacent(v)
        p = int(all(self.state.colour(w) != new for w in neighbours))
        m = int(all(self.state.colour(w) != old for w in neighbours))
        return p, m

    def probe_assign(self, v: int, colour: int) -> int:
        d = self.state.colour(v)
        if colour == d:
            return 0
        if self.mode == "paper-fast":
            p, m = self._fast_pm(v, colour, d)
            ok, n_val = self._holds, self.counter_value
            return p - m + ok(self.ncc, n_val) - ok(self.ncc + p - m, n_val)
        counts = self.counts
        count = counts.count
        total2, excess2 = counts.after(
            d,
            colour,
            count[d] - 1 + counts.split(v)[0],
            count[colour] + 1 - len(counts.neighbour_labels(v, colour)),
        )
        ok, n_val = self._holds, self.counter_value
        return ok(counts.total, n_val) - ok(total2, n_val) + excess2 - counts.excess

    def probe_counter(self, n_new: int) -> int:
        return self._holds(self.ncc, self.counter_value) - self._holds(self.ncc, n_new)

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        # in exact mode the component index has already recounted
        if self.mode == "exact":
            return
        # neighbour colours are unchanged by this move, so the p/m tests
        # still see the pre-move situation
        p, m = self._fast_pm(v, new, old)
        count = self.counts.count
        self.counts.recount(old, new, count[old] - m, count[new] + p)

    def commit_counter(self, n_new: int) -> None:
        self.counter_value = int(n_new)

    # hard mode -------------------------------------------------------------
    def check_hard(self) -> None:
        """A paper-fast constraint cannot be hard: its probes miss splits, so
        the search could not tell which moves keep it satisfied."""
        if self.mode == "paper-fast":
            raise InputError(
                f"constraint {self.id}: mode paper-fast cannot be hard, "
                "its probes miss splits; use mode exact"
            )

    def hard_init(self, model, rng: random.Random) -> None:
        """Partition the graph into a component count satisfying the
        relation, by seeded region growing, set through ``model``, which
        holds this constraint; raises when impossible."""
        n_vertices = len(self.state.geometry.vertices)
        limit = min(self.state.n, n_vertices)
        target = None
        for k in range(1, limit + 1):
            if self._holds(k, self.counter_value):
                target = k
                break
        if target is None:
            raise InitError(
                f"no feasible component count in 1..{limit} "
                f"satisfies {self.relop} {self.counter_value}"
            )
        model.set_all(grow_regions(self.state.geometry, target, rng))
        if not self.check():
            raise InitError("region growing failed to satisfy the constraint")
