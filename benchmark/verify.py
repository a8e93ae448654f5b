"""From-scratch verification of search results.

A result is checked against a model rebuilt from the instance with the
result's colouring, so no cache of the searching model is involved.
"""

from __future__ import annotations

import math
from typing import List, Tuple

#: the engine treats totals below this as zero (compact contributes floats)
TOLERANCE = 1e-9


def verify(instance, result) -> Tuple[float, List[str]]:
    """Rebuild ``result.colours`` and return the weighted total together
    with every disagreement found.

    A disagreement is a constraint whose ``check()`` contradicts its own
    ``violation()``, or a rebuilt total that differs from the total the
    search reported.
    """
    model = instance.build(colours=result.colours)
    total = 0.0
    problems: List[str] = []
    for constraint, weight in model.entries:
        violation = constraint.violation()
        if constraint.check() != (violation <= TOLERANCE):
            problems.append(
                f"{constraint.id}: check() is {constraint.check()} "
                f"but violation() is {violation}"
            )
        total += weight * violation
    if not math.isclose(total, result.violation, rel_tol=1e-9, abs_tol=TOLERANCE):
        problems.append(f"search reported {result.violation}, rebuild gives {total}")
    return total, problems


def same_run(a, b) -> bool:
    """Two results of one seed replay each other exactly."""
    return (
        a.colours == b.colours
        and a.iterations == b.iterations
        and a.violation == b.violation
        and a.trace == b.trace
    )
