"""A constraint's ``scope()`` holds every vertex whose move can change it.

The model probes a constraint, and commits a move to it, only for moves
of the vertices in its scope, through one table.  So a probe the model leaves out must be
exactly 0, the probes it makes must be the unscoped ones, and caches kept
by scoped commits must agree with a fresh build.
"""

import random

from sectorsearch.engine import Move
from sectorsearch.instance import generate


def _instance():
    return generate(
        seed=2, width=12, height=12, colours=4, flights=3,
        with_nonborder=True, with_compact=True,
    )


def _check_every_probe(model):
    state = model.state
    by_id = {c.id: (c, w) for c, w in model.entries}
    for v in state.order:
        for colour in range(1, state.n + 1):
            parts = model.probe_parts(Move.assign(v, colour))
            unscoped = {c.id: w * c.probe_assign(v, colour) for c, w in model.entries}
            assert {k: d for k, d in parts.items() if d} == {
                k: d for k, d in unscoped.items() if d
            }, (v, colour)
            for cid in by_id.keys() - parts.keys():
                assert by_id[cid][0].probe_assign(v, colour) == 0, (cid, v, colour)
            assert sum(parts.values()) == sum(unscoped.values())


def _violations(model):
    return {c.id: c.violation() for c, _ in model.entries}


def test_scoped_probes_and_commits_match_unscoped_ones():
    instance = _instance()
    model = instance.build()
    scoped = {
        spec.kind for spec in instance.constraints if model.constraint(spec.id).scope() is not None
    }
    assert scoped == {"stretchsum", "nonborder"}
    state = model.state
    _check_every_probe(model)
    rng = random.Random(7)
    for walk in range(2):
        # every vertex moves once per walk, so every scope is exercised
        for v in rng.sample(state.order, len(state.order)):
            model.commit(Move.assign(v, rng.randint(1, state.n)))
        fresh = instance.build(colours=state.snapshot())
        assert _violations(model) == _violations(fresh), walk
        _check_every_probe(model)
