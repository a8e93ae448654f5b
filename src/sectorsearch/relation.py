"""Comparison relations used by counted and summed constraints."""

from __future__ import annotations

import operator

from .errors import InputError

RELOPS = ("<=", "<", "=", "!=", ">", ">=")

OPS = {
    "<=": operator.le,
    "<": operator.lt,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


def check_relop(relop: str) -> str:
    if relop not in OPS:
        raise InputError(f"unknown relation {relop!r}, expected one of {RELOPS}")
    return relop


def holds(relop: str, a, b) -> bool:
    """True iff ``a relop b``."""
    return OPS[relop](a, b)


def excess(relop: str, x: int, t: int) -> int:
    """Integer margin by which ``x relop t`` fails; zero when it holds."""
    if relop == "<=":
        return max(x - t, 0)
    if relop == "<":
        return max(x - t + 1, 0)
    if relop == ">=":
        return max(t - x, 0)
    if relop == ">":
        return max(t - x + 1, 0)
    if relop == "=":
        return abs(x - t)
    if relop == "!=":
        return 1 if x == t else 0
    raise InputError(f"unknown relation {relop!r}")
