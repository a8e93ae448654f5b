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


class BalancedConstraint(Constraint):
    """Sum of scaled deviations from the average bounded by a threshold."""

    def __init__(
        self,
        state: ColourState,
        values: Mapping[int, int],
        delta_scaled: int,
        mu: Optional[Fraction] = None,
        id: str = "balanced",
    ):
        super().__init__(state)
        for v in state.env.vertices:
            if v not in values:
                raise InputError(f"vertex {v} has no value")
        self.values = {v: int(values[v]) for v in state.env.vertices}
        if delta_scaled < 0:
            raise InputError(f"threshold must be non-negative, got {delta_scaled}")
        self.delta_scaled = int(delta_scaled)
        self.mu_num = sum(self.values.values())
        if mu is not None and mu != Fraction(self.mu_num, state.n):
            raise InputError(
                f"given average {mu} contradicts values/colours "
                f"({self.mu_num}/{state.n})"
            )
        self.id = id
        self.rebuild()

    def rebuild(self) -> None:
        self.sums: Dict[int, int] = {c: 0 for c in range(1, self.state.n + 1)}
        for v in self.state.env.vertices:
            self.sums[self.state.colour(v)] += self.values[v]
        self._dev_sum = sum(self._dev(x) for x in self.sums.values())

    def _dev(self, x: int) -> int:
        return abs(self.state.n * x - self.mu_num)

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return max(self._dev_sum - self.delta_scaled, 0)

    def var_violation(self, v: int) -> int:
        return self._dev(self.sums[self.state.colour(v)])

    def conflicts(self) -> int:
        return self.state.classes_mask(c for c, x in self.sums.items() if self._dev(x))

    def check(self) -> bool:
        sums = {c: 0 for c in range(1, self.state.n + 1)}
        for v in self.state.env.vertices:
            sums[self.state.colour(v)] += self.values[v]
        return deviation_check(
            [sums[c] for c in sorted(sums)],
            Fraction(self.mu_num, self.state.n),
            self.delta_scaled,
        )

    # differentiation ----------------------------------------------------
    def probe_assign(self, v: int, colour: int) -> int:
        d = self.state.colour(v)
        if colour == d:
            return 0
        val = self.values[v]
        new_dev = (
            self._dev_sum
            - self._dev(self.sums[colour])
            - self._dev(self.sums[d])
            + self._dev(self.sums[colour] + val)
            + self._dev(self.sums[d] - val)
        )
        return max(new_dev - self.delta_scaled, 0) - max(
            self._dev_sum - self.delta_scaled, 0
        )

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        if old == new:
            return
        val = self.values[v]
        self._dev_sum -= self._dev(self.sums[old]) + self._dev(self.sums[new])
        self.sums[old] -= val
        self.sums[new] += val
        self._dev_sum += self._dev(self.sums[old]) + self._dev(self.sums[new])


class BoundedConstraint(Constraint):
    """Every per-colour value sum relates to a fixed threshold."""

    def __init__(
        self,
        state: ColourState,
        values: Mapping[int, int],
        relop: str,
        threshold: int,
        id: str = "bounded",
    ):
        super().__init__(state)
        for v in state.env.vertices:
            if v not in values:
                raise InputError(f"vertex {v} has no value")
        self.values = {v: int(values[v]) for v in state.env.vertices}
        self.relop = check_relop(relop)
        self.threshold = int(threshold)
        self.id = id
        self.rebuild()

    def rebuild(self) -> None:
        self.sums: Dict[int, int] = {c: 0 for c in range(1, self.state.n + 1)}
        for v in self.state.env.vertices:
            self.sums[self.state.colour(v)] += self.values[v]
        self._excess_sum = sum(
            excess(self.relop, x, self.threshold) for x in self.sums.values()
        )

    # measurement -------------------------------------------------------
    def violation(self) -> int:
        return self._excess_sum

    def var_violation(self, v: int) -> int:
        return excess(self.relop, self.sums[self.state.colour(v)], self.threshold)

    def conflicts(self) -> int:
        return self.state.classes_mask(
            c for c, x in self.sums.items() if excess(self.relop, x, self.threshold)
        )

    def check(self) -> bool:
        sums = {c: 0 for c in range(1, self.state.n + 1)}
        for v in self.state.env.vertices:
            sums[self.state.colour(v)] += self.values[v]
        return all(holds(self.relop, x, self.threshold) for x in sums.values())

    # differentiation ----------------------------------------------------
    def probe_assign(self, v: int, colour: int) -> int:
        d = self.state.colour(v)
        if colour == d:
            return 0
        val = self.values[v]
        t = self.threshold
        return (
            excess(self.relop, self.sums[colour] + val, t)
            + excess(self.relop, self.sums[d] - val, t)
            - excess(self.relop, self.sums[colour], t)
            - excess(self.relop, self.sums[d], t)
        )

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        if old == new:
            return
        val = self.values[v]
        t = self.threshold
        self._excess_sum -= excess(self.relop, self.sums[old], t) + excess(
            self.relop, self.sums[new], t
        )
        self.sums[old] -= val
        self.sums[new] += val
        self._excess_sum += excess(self.relop, self.sums[old], t) + excess(
            self.relop, self.sums[new], t
        )
