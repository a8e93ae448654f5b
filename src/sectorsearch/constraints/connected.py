"""Connectedness: component counting per colour plus a counter relation.

The constraint holds when the total number of same-colour connected
components relates to the counter and no colour is fragmented.  It keeps
its own counts: components per colour (``count``), their total
(``ncc``) and the components beyond the first of each colour
(``excess``).  A rebuild takes the counts from its source and derives
the total and excess, and a commit gives the moved vertex's two colours
their new counts through the formula its probe reads.  Two modes differ
only in the source of those counts:

* ``exact`` (default): the counts are those of the state's component
  index (:class:`sectorsearch.state.ComponentIndex`), the number of each
  colour's component masks, which every commit keeps up to date before
  the constraint hears of it.  A probe of ``v`` counts the distinct
  labels among v's neighbours of the new colour, which costs O(degree),
  and asks the index's split search how many pieces v's old component
  falls into.  That search first groups v's neighbours in the component
  by common neighbours there, which answers "one piece" after
  O(degree^2) reads when they are all linked; otherwise one loop runs
  interleaved searches, one per group, and a search that meets another
  takes it over.  They cost the smaller sides, not the colour class,
  plus at most one more pass over a group per take-over.
  Around that search a probe does O(degree) integer work; the relation
  is resolved once, at construction.
  Deltas are exact under arbitrary moves, articulation splits and
  multi-component merges included.
* ``paper-fast``: the literal constant-per-neighbour estimate.  It tests
  only whether the moved vertex starts or ends a component among its
  neighbours, so it miscounts splits and merges; the engine keeps it for
  cheap probing and for measuring how often the estimate diverges.  A
  rebuild counts from scratch and a commit reads the estimate, so the
  counts drift.

Its conflicts are the vertices a repair should move.  In exact mode
they are the stray fragments, the vertices outside their colour's
largest component (a tie goes to the component holding the
lowest-ranked vertex), a mask worked out from the index's component
masks, reading their popcounts, on a rebuild and on a commit that
changes a colour with more than one component before or after it;
``var_violation`` keeps the paper's per-colour formula.
Paper-fast mode reports the whole class of every colour its own counts
call fragmented.

The constraint exposes only the local-search protocol; component labels,
masks, merges and splits are read from ``state.component_index()``.
"""

from __future__ import annotations

import random
from typing import Dict, Set, Tuple

from ..errors import InitError, InputError
from ..relation import OPS, check_relop, holds
from ..state import ColourState, class_components, grow_regions
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
        state = self.state
        if self.mode == "exact":
            #: the state's component index, which only exact mode reads
            self._index = index = state.component_index()
            count = {c: len(index.component_masks(c)) for c in range(1, state.n + 1)}
        else:
            self._index = None
            count = component_counts(state)
        #: components per colour 1..n, their total and their excess, the
        #: components beyond the first of each colour
        self.count: Dict[int, int] = count
        self.ncc = sum(count.values())
        self.excess = sum(k - 1 for k in count.values() if k > 1)
        self._stray = 0 if self._index is None else self._stray_mask()

    def _stray_mask(self) -> int:
        """The vertices outside their colour's largest component, as a
        mask over the index's component masks, where a tie goes to the
        component that holds the lowest-ranked vertex, which is worked
        out only on a tie."""
        masks = self._index.component_masks
        class_mask = self.state.class_mask
        stray = 0
        for c, k in self.count.items():
            if k > 1:
                kept, top = 0, 0
                for mask in masks(c).values():
                    size = mask.bit_count()
                    if size > top or size == top and mask & -mask < kept & -kept:
                        kept, top = mask, size
                stray |= class_mask[c] ^ kept
        return stray

    def _after(self, a: int, b: int, k_a: int, k_b: int) -> Tuple[int, int]:
        """Total and excess once colours ``a != b`` have ``k_a`` and
        ``k_b`` components.  The one formula behind a probe's delta and
        a commit, so the two cannot drift apart; it runs once per exact
        connected probe, hence conditional expressions, not ``max``
        calls."""
        count = self.count
        old_a = count[a]
        old_b = count[b]
        total = self.ncc + k_a + k_b - old_a - old_b
        excess = (
            self.excess
            + (k_a - 1 if k_a > 1 else 0)
            + (k_b - 1 if k_b > 1 else 0)
            - (old_a - 1 if old_a > 1 else 0)
            - (old_b - 1 if old_b > 1 else 0)
        )
        return total, excess

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self.var_violation_counter() + self.excess

    def var_violation_counter(self) -> int:
        return 1 - self._holds(self.ncc, self.counter_value)

    def var_violation(self, v: int) -> int:
        return self.count[self.state.colour(v)] - 1

    def conflicts(self) -> int:
        """Exact: the stray fragments, the vertices outside their colour's
        largest component.  Paper-fast: the whole class of every colour
        its own counts call fragmented."""
        if self.mode == "exact":
            return self._stray
        return self.state.classes_mask(c for c, k in self.count.items() if k > 1)

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
        index = self._index
        count = self.count
        total2, excess2 = self._after(
            d,
            colour,
            count[d] - 1 + index.split(v)[0],
            count[colour] + 1 - len(index.neighbour_labels(v, colour)),
        )
        ok, n_val = self._holds, self.counter_value
        return ok(self.ncc, n_val) - ok(total2, n_val) + excess2 - self.excess

    def probe_counter(self, n_new: int) -> int:
        return self._holds(self.ncc, self.counter_value) - self._holds(self.ncc, n_new)

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        count = self.count
        if self.mode == "exact":
            # the component index has already followed the move
            masks = self._index.component_masks
            k_old = len(masks(old))
            k_new = len(masks(new))
            # a colour with at most one component before and after leaves
            # the stray mask as it is
            stale = count[old] > 1 or count[new] > 1 or k_old > 1 or k_new > 1
        else:
            # neighbour colours are unchanged by this move, so the p/m tests
            # still see the pre-move situation
            p, m = self._fast_pm(v, new, old)
            k_old, k_new, stale = count[old] - m, count[new] + p, False
        self.ncc, self.excess = self._after(old, new, k_old, k_new)
        count[old] = k_old
        count[new] = k_new
        if stale:
            self._stray = self._stray_mask()

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
