"""Workload balancing and bounding over per-colour value sums.

All balance arithmetic is carried out in n-scaled integer units,
``|n * X[i] - sum(values)|``, so a fractional average never forces
floating point; the threshold is declared in the same scaled units.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence

from ..errors import InputError
from ..relation import check_relop, excess, holds
from ..state import ColourState
from .base import Constraint


def mu_of(values: Sequence[int], n: int) -> Fraction:
    """Exact per-colour average of the given values."""
    if n < 1:
        raise InputError(f"need at least one colour, got n={n}")
    return Fraction(sum(values), n)


def scale_delta(delta: int, n: int) -> int:
    """Convert an unscaled deviation budget into n-scaled units."""
    return delta * n


def deviation_check(sums: Sequence[int], mu: Fraction, delta_scaled: int) -> bool:
    """True iff the scaled deviations of ``sums`` around ``mu`` stay within
    the scaled threshold."""
    n = len(sums)
    mu_num = mu * n
    total = sum(abs(n * x - mu_num) for x in sums)
    return total <= delta_scaled


class ColourSumConstraint(Constraint):
    """Shared core of the per-colour sum kinds: the sum of the values of
    each colour class, a penalty per sum, and their maintained total.

    A kind supplies :meth:`_penalty` (zero when the colour's sum is fine)
    and :meth:`_violation_of`, the violation for a total of penalties.
    """

    def __init__(self, state: ColourState, values: Mapping[int, int]):
        super().__init__(state)
        for v in state.geometry.vertices:
            if v not in values:
                raise InputError(f"vertex {v} has no value")
        self.values = {v: int(values[v]) for v in state.geometry.vertices}

    def _penalty(self, x: int) -> int:
        raise NotImplementedError

    def _violation_of(self, total: int) -> int:
        raise NotImplementedError

    def _class_sums(self) -> Dict[int, int]:
        """Per colour, the value sum of its class, from the state's colours
        alone (never from the cache)."""
        sums = {c: 0 for c in range(1, self.state.n + 1)}
        for v in self.state.geometry.vertices:
            sums[self.state.colour(v)] += self.values[v]
        return sums

    def rebuild(self) -> None:
        self.sums = self._class_sums()
        self._total = sum(self._penalty(x) for x in self.sums.values())

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._violation_of(self._total)

    def var_violation(self, v: int) -> int:
        return self._penalty(self.sums[self.state.colour(v)])

    def conflicts(self) -> int:
        return self.state.classes_mask(c for c, x in self.sums.items() if self._penalty(x))

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
        self._total = self._total_after(v, old, new)
        self.sums[old] -= self.values[v]
        self.sums[new] += self.values[v]


class BalancedConstraint(ColourSumConstraint):
    """Sum of scaled deviations from the average bounded by a threshold."""

    def __init__(
        self,
        state: ColourState,
        values: Mapping[int, int],
        delta_scaled: int,
        mu: Optional[Fraction] = None,
        id: str = "balanced",
    ):
        super().__init__(state, values)
        if delta_scaled < 0:
            raise InputError(f"delta_scaled must be non-negative, got {delta_scaled}")
        self.delta_scaled = int(delta_scaled)
        self.mu_num = sum(self.values.values())
        if mu is not None and mu != Fraction(self.mu_num, state.n):
            raise InputError(
                f"given average {mu} contradicts values/colours "
                f"({self.mu_num}/{state.n})"
            )
        self.id = id
        self.rebuild()

    def _penalty(self, x: int) -> int:
        return abs(self.state.n * x - self.mu_num)

    def _violation_of(self, total: int) -> int:
        return max(total - self.delta_scaled, 0)

    def check(self) -> bool:
        sums = self._class_sums()
        return deviation_check(
            [sums[c] for c in sorted(sums)],
            Fraction(self.mu_num, self.state.n),
            self.delta_scaled,
        )


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
