"""Protocol shared by all constraint objects.

A constraint owns incremental caches over one :class:`ColourState`.  The
caches are initialised from the state at construction time and kept in
sync through the commit hooks, which the model holding the constraint
(:class:`~sectorsearch.engine.Model`) invokes for every change it
commits; the state itself holds no constraint.  Probes never mutate
anything.

A kind computes the local effect of a single-vertex move once, in one
routine that reads the other vertices' colours from the state and so
gives the same answer before the move and after it: ``probe_assign``
reduces that effect to a violation delta and ``commit_assign`` applies
it to the caches, so the two cannot drift apart.

A constraint names the vertices whose recolouring can change its
violation in :meth:`Constraint.scope`.  The model neither probes it nor
commits to it a move outside that scope, so its probe and commit hooks
see only moves of those vertices (a direct probe outside the scope must
still answer 0).

Besides its violation, every constraint reports its conflicting vertices
as a bit mask over ``state.order`` (see :meth:`Constraint.conflicts`).
The built-in kinds keep that mask up to date as part of their caches;
the search draws its focus vertex from the union of the masks.
"""

from __future__ import annotations

from ..errors import InputError
from ..state import ColourState


class Constraint:
    id: str = "constraint"

    def __init__(self, state: ColourState):
        self.state = state

    # measurement -------------------------------------------------------
    def violation(self):
        """Non-negative measure; zero iff the constraint is satisfied."""
        raise NotImplementedError

    def var_violation(self, v: int):
        """How much a suitable change of vertex ``v`` may help."""
        raise NotImplementedError

    def check(self) -> bool:
        """Semantics of the constraint on the current state, cache-free."""
        raise NotImplementedError

    def conflicts(self) -> int:
        """Mask of the vertices ``v`` with ``var_violation(v) > 0`` of a
        violated constraint, and 0 while ``violation()`` is 0; exact
        connectedness marks only its stray fragments, the vertices outside
        their colour's largest component.

        Bit ``r`` stands for ``state.order[r]``.  Per-colour kinds answer
        with the union of the class masks of their violating colours,
        per-vertex kinds with a mask they update where they update the
        terms.  This default scans every vertex of a violated constraint,
        so a kind that does not override it costs O(V) per search
        iteration.
        """
        if not self.violation():
            return 0
        state = self.state
        return state.mask_of(v for v in state.order if self.var_violation(v) > 0)

    def scope(self):
        """The vertices whose recolouring can change the violation, or
        ``None`` for every vertex.  The model reads it once, when it is
        built, into the one table that routes its probes and commits."""
        return None

    # differentiation ----------------------------------------------------
    def probe_assign(self, v: int, colour: int):
        """Violation delta of the move ``colour(v) := colour``."""
        raise NotImplementedError

    # incrementality ------------------------------------------------------
    def commit_assign(self, v: int, old: int, new: int) -> None:
        """Hook called by ``Model.assign`` after ``colour(v)`` changed from
        ``old`` to ``new``; the model calls it only for a real change, so
        ``old != new`` always holds."""
        raise NotImplementedError

    def rebuild(self) -> None:
        """Recompute every cache from the current state, into new objects
        (the old ones are never updated in place)."""
        raise NotImplementedError

    def check_hard(self) -> None:
        """Raise an :class:`InputError` naming the constraint, and change
        nothing, unless a search can make it hard with its ``hard_init``."""
        if not hasattr(self, "hard_init"):
            raise InputError(f"constraint {self.id!r} cannot be made hard")
