"""Workload balancing and bounding over per-colour value sums.

All balance arithmetic is carried out in n-scaled integer units,
``|n * X[i] - sum(values)|``, so a fractional average never forces
floating point; the threshold is declared in the same scaled units.

A move changes two sums, so its effect is four penalties: the two
colours' before the move and after it.  The probe reads the total they
give from ``_total_after`` and reduces it to a violation delta; the
commit computes the same four, keeping the two new ones for the met set
as well, so each penalty is computed once per commit.  Both kinds share
the sum core's routines, which work for any penalty.

The core also keeps the set of met colours, those whose penalty is 0; a
commit updates it for the two colours it changes.  As the colour classes
partition the vertices, the conflicting vertices of a violated
constraint are every vertex but the met colours' classes, so
``conflicts()`` is one XOR of the all-vertices mask: nothing to compute
while no colour is met, as a balance constraint's sums rarely sit
exactly at the average.  A constraint at violation 0 has no conflicts,
although ``var_violation`` keeps the paper's per-vertex penalty: a
balance constraint within its threshold still has colours off the
average, and none of them needs repair.

A rebuild reads the class sums from the state's class masks: the core
keeps, once per constraint, one mask per bit of ``value - min(values)``,
the vertices whose offset value has that bit set
(:func:`~sectorsearch.geometry.value_planes`), so a class's sum is
``min`` times the class mask's popcount plus each plane's popcount
within the class, shifted by its bit
(:func:`~sectorsearch.geometry.masked_sum`, which compact mode A's
component volumes share), and no Python code runs per vertex.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from ..errors import InputError
from ..geometry import masked_sum, value_planes
from ..relation import check_relop, excess, holds
from ..state import ColourState
from .base import Constraint


def deviation_check(sums: Sequence[int], total: int, delta_scaled: int) -> bool:
    """True iff the scaled deviations of ``sums`` around their average,
    ``sum(|n * x - total|)`` for ``n`` sums adding up to ``total``, stay
    within the scaled threshold."""
    n = len(sums)
    return sum(abs(n * x - total) for x in sums) <= delta_scaled


class ColourSumConstraint(Constraint):
    """Shared core of the per-colour sum kinds: the sum of the values of
    each colour class, a penalty per sum, and their maintained total.

    A kind supplies :meth:`_penalty` (zero when the colour's sum is fine)
    and :meth:`_violation_of`, the violation for a total of penalties.
    """

    def __init__(self, state: ColourState, values: Mapping[int, int]):
        super().__init__(state)
        # one set comparison; the walk only names the offender
        if values.keys() != state.geometry.vertices:
            for v in state.geometry.vertices:
                if v not in values:
                    raise InputError(f"vertex {v} has no value")
        ranked = list(map(int, map(values.__getitem__, state.order)))
        self.values = dict(zip(state.order, ranked))
        self._low, self._planes = value_planes(ranked)

    def _penalty(self, x: int) -> int:
        raise NotImplementedError

    def _violation_of(self, total: int) -> int:
        raise NotImplementedError

    def _class_sums(self) -> Dict[int, int]:
        """Per colour, the value sum of its class, from the state's colours
        alone (never from the cache)."""
        sums = dict.fromkeys(range(1, self.state.n + 1), 0)
        colour = self.state.colours()
        for v, x in self.values.items():
            sums[colour[v]] += x
        return sums

    def rebuild(self) -> None:
        state = self.state
        low, planes = self._low, self._planes
        class_mask = state.class_mask
        self.sums = {c: masked_sum(low, planes, class_mask[c]) for c in range(1, state.n + 1)}
        self._total = sum(self._penalty(x) for x in self.sums.values())
        #: the colours whose penalty is 0
        self._met = {c for c, x in self.sums.items() if not self._penalty(x)}

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._violation_of(self._total)

    def var_violation(self, v: int) -> int:
        return self._penalty(self.sums[self.state.colour(v)])

    def conflicts(self) -> int:
        if not self._violation_of(self._total):
            return 0
        return self.state.everyone ^ self.state.classes_mask(self._met)

    # differentiation ----------------------------------------------------
    def _total_after(self, v: int, before: int, after: int) -> int:
        """The total of penalties once ``v`` moved from ``before`` to
        ``after``, from the sums as they stand before the move."""
        val = self.values[v]
        penalty = self._penalty
        sums = self.sums
        return (
            self._total
            - penalty(sums[before])
            - penalty(sums[after])
            + penalty(sums[before] - val)
            + penalty(sums[after] + val)
        )

    def probe_assign(self, v: int, colour: int) -> int:
        d = self.state.colour(v)
        if colour == d:
            return 0
        total = self._total_after(v, d, colour)
        return self._violation_of(total) - self._violation_of(self._total)

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        # the four penalties of _total_after, the two new ones computed
        # once for the total and the met set
        val = self.values[v]
        penalty = self._penalty
        sums = self.sums
        after_old = penalty(sums[old] - val)
        after_new = penalty(sums[new] + val)
        self._total += after_old + after_new - penalty(sums[old]) - penalty(sums[new])
        sums[old] -= val
        sums[new] += val
        met = self._met
        if after_old:
            met.discard(old)
        else:
            met.add(old)
        if after_new:
            met.discard(new)
        else:
            met.add(new)


class BalancedConstraint(ColourSumConstraint):
    """Sum of scaled deviations from the average bounded by a threshold."""

    def __init__(
        self,
        state: ColourState,
        values: Mapping[int, int],
        delta_scaled: int,
        id: str = "balanced",
    ):
        super().__init__(state, values)
        if delta_scaled < 0:
            raise InputError(f"delta_scaled must be non-negative, got {delta_scaled}")
        self.delta_scaled = int(delta_scaled)
        self.mu_num = sum(self.values.values())
        self.id = id
        self.rebuild()

    def _penalty(self, x: int) -> int:
        return abs(self.state.n * x - self.mu_num)

    def _violation_of(self, total: int) -> int:
        excess = total - self.delta_scaled
        return excess if excess > 0 else 0

    def check(self) -> bool:
        sums = self._class_sums()
        return deviation_check(list(sums.values()), self.mu_num, self.delta_scaled)


class BoundedConstraint(ColourSumConstraint):
    """Every per-colour value sum relates to a fixed threshold."""

    def __init__(
        self,
        state: ColourState,
        values: Mapping[int, int],
        relop: str,
        threshold: int,
        id: str = "bounded",
    ):
        super().__init__(state, values)
        self.relop = check_relop(relop)
        self.threshold = int(threshold)
        self.id = id
        self.rebuild()

    def _penalty(self, x: int) -> int:
        return excess(self.relop, x, self.threshold)

    def _violation_of(self, total: int) -> int:
        return total

    def check(self) -> bool:
        sums = self._class_sums()
        return all(holds(self.relop, x, self.threshold) for x in sums.values())
