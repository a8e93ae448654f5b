"""Constraint-based local search for partitioning region graphs into
coloured sectors, with violation, differentiation and incremental-update
semantics per constraint, plus a small systematic-search toolbox."""

from .constraints import (
    BalancedConstraint,
    BoundedConstraint,
    CompactConstraint,
    ConnectedConstraint,
    NonBorderConstraint,
    StretchSumConstraint,
)
from .engine import Model, Move, SearchConfig, SearchResult, neighbourhood, search
from .geometry import (
    BOTTOM,
    EnvelopedGeometry,
    Geometry,
    OrderedPath,
    envelop,
    grid,
)
from .instance import Instance, generate, load, loads, save, dumps
from .state import ColourState, Component, stretches
from .traffic import FlightPlan, dwell_values, validate, visited_path

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "BalancedConstraint",
    "BoundedConstraint",
    "ColourState",
    "CompactConstraint",
    "Component",
    "ConnectedConstraint",
    "EnvelopedGeometry",
    "FlightPlan",
    "Geometry",
    "Instance",
    "Model",
    "Move",
    "NonBorderConstraint",
    "OrderedPath",
    "SearchConfig",
    "SearchResult",
    "StretchSumConstraint",
    "dumps",
    "dwell_values",
    "envelop",
    "generate",
    "grid",
    "load",
    "loads",
    "neighbourhood",
    "save",
    "search",
    "stretches",
    "validate",
    "visited_path",
]
