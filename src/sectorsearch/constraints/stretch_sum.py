"""Per-stretch value sums along an ordered path (dwell-time constraints).

Every maximal same-coloured run along the path must have a value sum in
relation with the threshold: ``>=`` expresses minimum dwell time, ``<=``
maximum dwell time.  Each position keeps the bounds of its stretch;
values are fixed per constraint, so a stretch's value sum is the
difference of two entries of a prefix table.  A move of one position
retires the stretches from the one left of its own to the one right of
it and forms new ones in their place, and one constant-time routine
answers both the probe and the commit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..errors import InitError, InputError
from ..geometry import OrderedPath
from ..relation import OPS, check_relop, holds
from ..state import ColourState, stretches, with_bit
from .base import Constraint


def stretch_sum_check(colours: Sequence[int], values: Sequence[int], relop: str, t: int) -> bool:
    """Cache-free semantics over an explicit colour sequence."""
    for left, right in stretches(colours):
        if not holds(relop, sum(values[left : right + 1]), t):
            return False
    return True


class StretchSumConstraint(Constraint):
    def __init__(
        self,
        state: ColourState,
        path: OrderedPath,
        values: Sequence[int],
        relop: str = ">=",
        threshold: int = 120,
        id: str = "stretchsum",
    ):
        super().__init__(state)
        if len(values) != len(path.interior):
            raise InputError(
                f"{len(values)} values for {len(path.interior)} path vertices"
            )
        if any(val <= 0 for val in values):
            raise InputError("stretch values must be positive")
        self.path = path
        self.values = list(values)
        self.relop = check_relop(relop)
        # resolved once: every probe and every term compares
        self._holds = OPS[self.relop]
        self.threshold = int(threshold)
        self.id = id
        self._pos: Dict[int, int] = {v: i for i, v in enumerate(path.interior)}
        self._prefix = [0]
        for val in self.values:
            self._prefix.append(self._prefix[-1] + val)
        self.rebuild()

    # cache layout: per position, the bounds of its stretch; the stretch
    # left..right sums to _prefix[right + 1] - _prefix[left]
    def rebuild(self) -> None:
        interior = self.path.interior
        m = len(interior)
        self._start = [0] * m
        self._end = [0] * m
        colour = self.state.colours()
        colours = [colour[v] for v in interior]
        self._violating = sum(self._write(left, right) for left, right in stretches(colours))
        self._conflicts = self.state.mask_of(
            interior[k] for k in range(m) if self._term(k)
        )

    def _write(self, left: int, right: int) -> int:
        """Record ``left..right`` as the stretch of each of its positions;
        returns the stretch's violation."""
        self._start[left:right + 1] = [left] * (right + 1 - left)
        self._end[left:right + 1] = [right] * (right + 1 - left)
        return self._viol(self._prefix[right + 1] - self._prefix[left])

    def _col(self, i: int) -> int:
        return self.state.colour(self.path.interior[i])

    def _viol(self, sigma: int) -> int:
        return 0 if self._holds(sigma, self.threshold) else 1

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._violating

    def scope(self):
        """Only the path's vertices can change its stretches."""
        return self.path.interior

    def var_violation(self, v: int) -> int:
        i = self._pos.get(v)
        if i is None:
            return 0
        return self._term(i)

    def conflicts(self) -> int:
        return self._conflicts if self._violating else 0

    def _term(self, i: int) -> int:
        """``var_violation`` of the path vertex at position ``i``."""
        left, right = self._start[i], self._end[i]
        if left < i < right:
            return 0
        sigma = self._prefix[right + 1] - self._prefix[left]
        if self._viol(sigma):
            return 1
        if self._holds(sigma - self.values[i], self.threshold):
            return self.values[i]
        return 0

    def check(self) -> bool:
        colours = [self._col(i) for i in range(len(self.path.interior))]
        return stretch_sum_check(colours, self.values, self.relop, self.threshold)

    # differentiation ----------------------------------------------------
    def _stretch_move(self, i: int, colour: int):
        """The stretches that recolouring position ``i`` to ``colour``
        retires and those it forms in their place, as ``(left, right,
        sum)`` triples; both cover the window from the stretch left of
        ``i``'s to the stretch right of it.  Only the records, the prefix
        table and the colours just outside ``i``'s stretch are read, so
        the answer is the same before the move and after it."""
        start, end, prefix = self._start, self._end, self._prefix
        left, right = start[i], end[i]
        retired = [(left, right, prefix[right + 1] - prefix[left])]
        formed = []
        if left < i:
            formed.append((left, i - 1, prefix[i] - prefix[left]))
        if i < right:
            formed.append((i + 1, right, prefix[right + 1] - prefix[i + 1]))
        lo = hi = i
        if left > 0:
            far = start[left - 1]
            outside = (far, left - 1, prefix[left] - prefix[far])
            retired.append(outside)
            if i == left and self._col(left - 1) == colour:
                lo = outside[0]
            else:
                formed.append(outside)
        if right < len(end) - 1:
            far = end[right + 1]
            outside = (right + 1, far, prefix[far + 1] - prefix[right + 1])
            retired.append(outside)
            if i == right and self._col(right + 1) == colour:
                hi = outside[1]
            else:
                formed.append(outside)
        formed.append((lo, hi, prefix[hi + 1] - prefix[lo]))
        return retired, formed

    def probe_assign(self, v: int, colour: int) -> int:
        i = self._pos.get(v)
        if i is None or colour == self._col(i):
            return 0
        retired, formed = self._stretch_move(i, colour)
        ok, t = self._holds, self.threshold
        delta = 0
        for _, _, s in formed:
            if not ok(s, t):
                delta += 1
        for _, _, s in retired:
            if not ok(s, t):
                delta -= 1
        return delta

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        i = self._pos[v]
        retired, formed = self._stretch_move(i, new)
        for _, _, s in retired:
            self._violating -= self._viol(s)
        for left, right, _ in formed:
            self._violating += self._write(left, right)
        # a term reads only its own position's record, so only the terms
        # of the window, which both lists cover, can have changed; and a
        # term is 0 inside a stretch, so the window's conflict bits sit at
        # the retired stretches' ends before and at the formed ones' after
        interior = self.path.interior
        rank = self.state.rank
        mask = self._conflicts
        for left, right, _ in retired:
            for k in (left, right):
                mask = with_bit(mask, rank[interior[k]], False)
        for left, right, _ in formed:
            for k in (left, right):
                if self._term(k):
                    mask |= 1 << rank[interior[k]]
        self._conflicts = mask

    # hard mode -------------------------------------------------------------
    def check_hard(self) -> None:
        """Only ``>=`` and ``<=`` have a greedy :meth:`hard_init`."""
        if self.relop not in (">=", "<="):
            raise InputError(
                f"constraint {self.id}: relation {self.relop} cannot be hard, "
                "hard initialisation supports >= and <="
            )

    def hard_init(self, model, rng: random.Random) -> None:
        """Greedy left-to-right colouring making every stretch satisfy the
        relation, committed through ``model``, which holds this
        constraint; raises when no such colouring exists."""
        self.check_hard()
        values = self.values
        t = self.threshold
        n = self.state.n
        total = sum(values)
        if self.relop == ">=":
            if total < t:
                raise InitError(f"total value {total} below threshold {t}")
            colours: List[int] = []
            cur, acc = 1, 0
            stretch_start = 0
            for i, val in enumerate(values):
                colours.append(cur)
                acc += val
                if acc >= t and i < len(values) - 1 and n >= 2:
                    cur = 3 - cur
                    acc = 0
                    stretch_start = i + 1
            # a short trailing stretch is merged into its predecessor
            if acc < t and stretch_start > 0:
                prev = colours[stretch_start - 1]
                for i in range(stretch_start, len(values)):
                    colours[i] = prev
        else:  # "<=": check_hard refused every other relation
            if max(values) > t:
                raise InitError(f"value {max(values)} exceeds threshold {t}")
            if n == 1 and total > t:
                raise InitError(f"one colour cannot keep total {total} under {t}")
            colours = []
            cur, acc = 1, 0
            for val in values:
                if acc + val > t:
                    cur = 3 - cur
                    acc = 0
                acc += val
                colours.append(cur)
        for i, v in enumerate(self.path.interior):
            model.assign(v, colours[i])
        if self.violation() != 0:
            raise InitError("greedy colouring failed to satisfy the constraint")
