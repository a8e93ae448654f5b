"""Per-stretch value sums along an ordered path (dwell-time constraints).

Every maximal same-coloured run along the path must have a value sum in
relation with the threshold: ``>=`` expresses minimum dwell time, ``<=``
maximum dwell time.  Values are fixed per constraint, so fragment sums
come from a prefix table and every probe case is constant time.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..errors import InitError, InputError
from ..geometry import OrderedPath
from ..relation import check_relop, holds
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
        self.threshold = int(threshold)
        self.id = id
        self._pos: Dict[int, int] = {v: i for i, v in enumerate(path.interior)}
        self._prefix = [0]
        for val in self.values:
            self._prefix.append(self._prefix[-1] + val)
        self.rebuild()

    # cache layout: per position, the bounds and value sum of its stretch
    def rebuild(self) -> None:
        m = len(self.path.interior)
        self._start = [0] * m
        self._end = [0] * m
        self._sum = [0] * m
        self._violating = 0
        i = 0
        while i < m:
            j = i
            colour_i = self._col(i)
            while j + 1 < m and self._col(j + 1) == colour_i:
                j += 1
            s = self._range_sum(i, j)
            for k in range(i, j + 1):
                self._start[k] = i
                self._end[k] = j
                self._sum[k] = s
            self._violating += self._viol(s)
            i = j + 1
        interior = self.path.interior
        self._conflicts = self.state.mask_of(
            interior[k] for k in range(m) if self._term(k)
        )

    def _col(self, i: int) -> int:
        return self.state.colour(self.path.interior[i])

    def _range_sum(self, i: int, j: int) -> int:
        return self._prefix[j + 1] - self._prefix[i]

    def _viol(self, sigma: int) -> int:
        return 0 if holds(self.relop, sigma, self.threshold) else 1

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._violating

    def records(self) -> List[tuple]:
        """Current stretch records as (left, right, colour, sum) tuples."""
        out = []
        i = 0
        m = len(self.path.interior)
        while i < m:
            out.append((self._start[i], self._end[i], self._col(i), self._sum[i]))
            i = self._end[i] + 1
        return out

    def var_violation(self, v: int) -> int:
        i = self._pos.get(v)
        if i is None:
            return 0
        return self._term(i)

    def conflicts(self) -> int:
        return self._conflicts

    def _term(self, i: int) -> int:
        """``var_violation`` of the path vertex at position ``i``."""
        if self._start[i] < i < self._end[i]:
            return 0
        sigma = self._sum[i]
        if self._viol(sigma):
            return 1
        if holds(self.relop, sigma - self.values[i], self.threshold):
            return self.values[i]
        return 0

    def check(self) -> bool:
        colours = [self._col(i) for i in range(len(self.path.interior))]
        return stretch_sum_check(colours, self.values, self.relop, self.threshold)

    # differentiation ----------------------------------------------------
    def probe_assign(self, v: int, colour: int) -> int:
        i = self._pos.get(v)
        if i is None:
            return 0
        c = self._col(i)
        if colour == c:
            return 0
        m = len(self.path.interior)
        left, right, sigma = self._start[i], self._end[i], self._sum[i]
        val = self.values[i]
        has_left = left > 0
        has_right = right < m - 1
        merge_left = has_left and self._col(left - 1) == colour
        merge_right = has_right and self._col(right + 1) == colour
        viol = self._viol

        if left == i == right:
            s_left = self._sum[left - 1] if has_left else 0
            s_right = self._sum[right + 1] if has_right else 0
            if merge_left and merge_right:
                return (
                    viol(s_left + sigma + s_right)
                    - viol(s_left)
                    - viol(sigma)
                    - viol(s_right)
                )
            if merge_left:
                return viol(s_left + sigma) - viol(s_left) - viol(sigma)
            if merge_right:
                return viol(sigma + s_right) - viol(sigma) - viol(s_right)
            return 0
        if i == left:
            delta = viol(sigma - val) - viol(sigma)
            if merge_left:
                s_left = self._sum[left - 1]
                return delta + viol(s_left + val) - viol(s_left)
            return delta + viol(val)
        if i == right:
            delta = viol(sigma - val) - viol(sigma)
            if merge_right:
                s_right = self._sum[right + 1]
                return delta + viol(s_right + val) - viol(s_right)
            return delta + viol(val)
        # interior: the stretch splits into two fragments and a singleton
        frag_left = self._range_sum(left, i - 1)
        frag_right = self._range_sum(i + 1, right)
        return viol(frag_left) + viol(val) + viol(frag_right) - viol(sigma)

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        i = self._pos.get(v)
        if i is None or old == new:
            return
        m = len(self.path.interior)
        left, right = self._start[i], self._end[i]
        window_a = self._start[left - 1] if left > 0 else left
        window_b = self._end[right + 1] if right < m - 1 else right
        # retire the records currently covering the window
        j = window_a
        while j <= window_b:
            self._violating -= self._viol(self._sum[j])
            j = self._end[j] + 1
        # rescan: stretch boundaries cannot move past the window edges
        j = window_a
        while j <= window_b:
            k = j
            colour_j = self._col(j)
            while k + 1 <= window_b and self._col(k + 1) == colour_j:
                k += 1
            s = self._range_sum(j, k)
            for idx in range(j, k + 1):
                self._start[idx] = j
                self._end[idx] = k
                self._sum[idx] = s
            self._violating += self._viol(s)
            j = k + 1
        # a term reads only its own position's record, so only the
        # window's terms can have changed
        interior = self.path.interior
        rank = self.state.rank
        mask = self._conflicts
        for idx in range(window_a, window_b + 1):
            mask = with_bit(mask, rank[interior[idx]], self._term(idx) > 0)
        self._conflicts = mask

    # hard mode -------------------------------------------------------------
    def hard_init(self, rng: Optional[random.Random] = None) -> None:
        """Greedy left-to-right colouring making every stretch satisfy the
        relation; raises when no such colouring exists."""
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
        elif self.relop == "<=":
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
        else:
            raise InitError(f"hard initialisation supports >= and <=, not {self.relop}")
        for i, v in enumerate(self.path.interior):
            self.state.assign(v, colours[i])
        self.rebuild()
        if self.violation() != 0:
            raise InitError("greedy colouring failed to satisfy the constraint")
