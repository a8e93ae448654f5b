"""Connectedness: component counting per colour plus a counter relation.

The constraint holds when the total number of same-colour connected
components relates to the counter and no colour is fragmented.  Two
probing/updating modes exist:

* ``exact`` (default): every vertex carries the label of its component
  and every label its size, filled in by the single pass of
  :meth:`ConnectedConstraint.rebuild`.  A move of ``v`` joins as many
  components of the new colour as there are distinct labels among v's
  neighbours of that colour, which costs O(degree).  Whether ``v``'s old
  component splits is decided by interleaved breadth-first searches from
  its same-component neighbours, with ``v`` blocked, that unite when they
  meet and stop once one search group is left or all groups but one are
  exhausted (the on-line edge-deletion trick of Even & Shiloach, JACM
  1981).  The cost is that of the smaller sides, not of the colour class.
  Commits run the same routines: exhausted pieces of a split get fresh
  labels, and a merge relabels the smaller components into the largest
  (union by size).  Deltas and caches are exact under arbitrary moves,
  articulation splits and multi-component merges included.
* ``paper-fast``: the literal constant-per-neighbour estimate.  It tests
  only whether the moved vertex starts or ends a component among its
  neighbours, so it miscounts splits and merges; the engine keeps it for
  cheap probing and for measuring how often the estimate diverges.  Its
  commits use the estimate too and leave the labels untouched.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..errors import InitError, InputError
from ..relation import check_relop, holds
from ..state import ColourState, class_components, grow_regions
from .base import Constraint

MODES = ("exact", "paper-fast")


def connected_check(state: ColourState, relop: str, n_val: int) -> bool:
    """Cache-free semantics: component count relates to ``n_val`` and every
    colour has at most one component."""
    counts: Dict[int, int] = {}
    base = state.env.base
    members: Dict[int, Set[int]] = {}
    for v in state.env.vertices:
        members.setdefault(state.colour(v), set()).add(v)
    for c, vs in members.items():
        counts[c] = len(class_components(base, vs))
    total = sum(counts.values())
    return holds(relop, total, n_val) and all(k <= 1 for k in counts.values())


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
        self.counter_value = int(counter)
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
        self.mode = mode
        self.id = id
        self.rebuild()

    def rebuild(self) -> None:
        base = self.state.env.base
        colour = self.state.snapshot()
        label: Dict[int, int] = {}
        self.label = label
        self.size: Dict[int, int] = {}
        self._labels = itertools.count(1)
        self.ncc_by_colour: Dict[int, int] = {c: 0 for c in range(1, self.state.n + 1)}
        for start in self.state.env.vertices:
            if start in label:
                continue
            c = colour[start]
            lab = next(self._labels)
            label[start] = lab
            stack = [start]
            size = 1
            while stack:
                u = stack.pop()
                for w in base.adjacent(u):
                    if w not in label and colour[w] == c:
                        label[w] = lab
                        stack.append(w)
                        size += 1
            self.size[lab] = size
            self.ncc_by_colour[c] += 1
        self.ncc: int = sum(self.ncc_by_colour.values())
        self._excess: int = sum(max(k - 1, 0) for k in self.ncc_by_colour.values())

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self.var_violation_counter() + self._excess

    def var_violation_counter(self) -> int:
        return 1 - int(holds(self.relop, self.ncc, self.counter_value))

    def var_violation_colour(self, v: int) -> int:
        return self.ncc_by_colour[self.state.colour(v)] - 1

    def var_violation(self, v: int) -> int:
        return self.var_violation_colour(v)

    def conflicts(self) -> int:
        return self.state.classes_mask(c for c, k in self.ncc_by_colour.items() if k > 1)

    def check(self, n_val: Optional[int] = None) -> bool:
        if n_val is None:
            n_val = self.counter_value
        return connected_check(self.state, self.relop, n_val)

    # differentiation ----------------------------------------------------
    def _fast_pm(self, v: int, new: int, old: int):
        neighbours = self.state.env.base.adjacent(v)
        p = int(all(self.state.colour(w) != new for w in neighbours))
        m = int(all(self.state.colour(w) != old for w in neighbours))
        return p, m

    def probe_assign(self, v: int, colour: int) -> int:
        d = self.state.colour(v)
        if colour == d:
            return 0
        if self.mode == "paper-fast":
            p, m = self._fast_pm(v, colour, d)
            return (
                p
                - m
                + int(holds(self.relop, self.ncc, self.counter_value))
                - int(holds(self.relop, self.ncc + p - m, self.counter_value))
            )
        k_old2 = self.ncc_by_colour[d] - 1 + self._split(v)[0]
        k_new2 = self.ncc_by_colour[colour] + 1 - len(self._neighbour_labels(v, colour))
        ncc2, excess2 = self._recount(d, colour, k_old2, k_new2)
        return (
            int(holds(self.relop, self.ncc, self.counter_value))
            - int(holds(self.relop, ncc2, self.counter_value))
            + excess2
            - self._excess
        )

    def probe_counter(self, n_new: int) -> int:
        return int(holds(self.relop, self.ncc, self.counter_value)) - int(
            holds(self.relop, self.ncc, n_new)
        )

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        if old == new:
            return
        if self.mode == "paper-fast":
            # neighbour colours are unchanged by this move, so the p/m
            # tests still see the pre-move situation
            p, m = self._fast_pm(v, new, old)
            k_old2 = self.ncc_by_colour[old] - m
            k_new2 = self.ncc_by_colour[new] + p
        else:
            k_old2 = self.ncc_by_colour[old] - 1 + self._leave(v)
            k_new2 = self.ncc_by_colour[new] + 1 - self._join(v, new)
        self.ncc, self._excess = self._recount(old, new, k_old2, k_new2)
        self.ncc_by_colour[old] = k_old2
        self.ncc_by_colour[new] = k_new2

    def _recount(self, old: int, new: int, k_old2: int, k_new2: int) -> Tuple[int, int]:
        """Component total and excess once colours ``old`` and ``new``
        have ``k_old2`` and ``k_new2`` components."""
        k_old = self.ncc_by_colour[old]
        k_new = self.ncc_by_colour[new]
        ncc = self.ncc + k_old2 + k_new2 - k_old - k_new
        excess = (
            self._excess
            + max(k_old2 - 1, 0)
            + max(k_new2 - 1, 0)
            - max(k_old - 1, 0)
            - max(k_new - 1, 0)
        )
        return ncc, excess

    def commit_counter(self, n_new: int) -> None:
        self.counter_value = int(n_new)

    # component labels (exact mode) ----------------------------------------
    def _neighbour_labels(self, v: int, colour: int) -> Dict[int, int]:
        """Label -> one neighbour of ``v`` carrying it, over v's neighbours
        of ``colour``."""
        label = self.label
        state_colour = self.state.colour
        return {
            label[w]: w
            for w in self.state.env.base.adjacent(v)
            if state_colour(w) == colour
        }

    def _split(self, v: int) -> Tuple[int, List[List[int]]]:
        """Pieces that v's component falls into without ``v``.

        Returns the piece count and the vertices of every piece but the
        one the last open search group holds.  Breadth-first searches
        start at v's neighbours of v's label and advance one vertex each
        per round; searches that meet unite, and the run stops when one
        open group is left.  Exhausted groups never grow again, so they
        are whole pieces and the count is final.
        """
        label = self.label
        lab = label[v]
        adjacent = self.state.env.base.adjacent
        starts = [w for w in adjacent(v) if label[w] == lab]
        if len(starts) <= 1:
            return len(starts), []
        k = len(starts)
        parent = list(range(k))
        queues = [deque([s]) for s in starts]
        found = [[s] for s in starts]
        owner = {s: i for i, s in enumerate(starts)}
        owner[v] = -1
        closed: List[List[int]] = []
        open_groups = k
        while True:
            for i in range(k):
                queue = queues[i]
                if parent[i] != i or not queue:
                    continue
                u = queue.popleft()
                for w in adjacent(u):
                    if label[w] != lab:
                        continue
                    o = owner.get(w)
                    if o is None:
                        owner[w] = i
                        queue.append(w)
                        found[i].append(w)
                        continue
                    if o < 0:
                        continue
                    while parent[o] != o:
                        o = parent[o]
                    if o != i:
                        parent[o] = i
                        queue.extend(queues[o])
                        found[i].extend(found[o])
                        open_groups -= 1
                        if open_groups == 1:
                            return len(closed) + 1, closed
                if not queue:
                    closed.append(found[i])
                    open_groups -= 1
                    if open_groups == 1:
                        return len(closed) + 1, closed

    def _leave(self, v: int) -> int:
        """Take ``v`` out of its component's labels; returns the number
        of pieces left behind."""
        lab = self.label[v]
        pieces, closed = self._split(v)
        self.size[lab] -= 1
        if pieces == 0:
            del self.size[lab]
        for piece in closed:
            fresh = next(self._labels)
            for u in piece:
                self.label[u] = fresh
            self.size[fresh] = len(piece)
            self.size[lab] -= len(piece)
        return pieces

    def _join(self, v: int, colour: int) -> int:
        """Label ``v`` into the components of ``colour`` it touches, the
        smaller relabelled into the largest; returns how many it joined."""
        touched = self._neighbour_labels(v, colour)
        if touched:
            big = max(touched, key=self.size.__getitem__)
        else:
            big = next(self._labels)
            self.size[big] = 0
        label = self.label
        adjacent = self.state.env.base.adjacent
        for m, start in touched.items():
            if m == big:
                continue
            label[start] = big
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adjacent(u):
                    if label[w] == m:
                        label[w] = big
                        stack.append(w)
            self.size[big] += self.size.pop(m)
        self.size[big] += 1
        label[v] = big
        return len(touched)

    # divergence analysis --------------------------------------------------
    def _require_labels(self) -> None:
        if self.mode != "exact":
            raise InputError("component labels are kept in exact mode only")

    def new_colour_merge_count(self, v: int, colour: int) -> int:
        """How many distinct components of ``colour`` the move would join."""
        self._require_labels()
        return len(self._neighbour_labels(v, colour))

    def old_colour_split_pieces(self, v: int) -> int:
        """How many pieces v's current component falls into without v."""
        self._require_labels()
        return self._split(v)[0]

    # hard mode -------------------------------------------------------------
    def hard_init(self, rng: Optional[random.Random] = None) -> None:
        """Partition the graph into a component count satisfying the
        relation, by seeded region growing; raises when impossible."""
        if rng is None:
            rng = random.Random(0)
        n_vertices = len(self.state.env.vertices)
        limit = min(self.state.n, n_vertices)
        target = None
        for k in range(1, limit + 1):
            if holds(self.relop, k, self.counter_value):
                target = k
                break
        if target is None:
            raise InitError(
                f"no feasible component count in 1..{limit} "
                f"satisfies {self.relop} {self.counter_value}"
            )
        colours = grow_regions(self.state.env, target, rng)
        self.state.set_all(colours)
        self.rebuild()
        if not self.check():
            raise InitError("region growing failed to satisfy the constraint")
