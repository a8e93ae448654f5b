from .base import Constraint
from .compact import CompactConstraint, sphere_surface
from .connected import ConnectedConstraint, connected_check
from .non_border import NonBorderConstraint, non_border_check
from .stretch_sum import StretchSumConstraint, stretch_sum_check
from .workload import BalancedConstraint, BoundedConstraint, deviation_check

__all__ = [
    "Constraint",
    "ConnectedConstraint",
    "CompactConstraint",
    "StretchSumConstraint",
    "BalancedConstraint",
    "BoundedConstraint",
    "NonBorderConstraint",
    "connected_check",
    "non_border_check",
    "stretch_sum_check",
    "deviation_check",
    "sphere_surface",
]
