"""Naive reference implementations used as ground truth in tests.

Everything here recomputes from first principles (plain DFS/scans/sums
over the geometry data), independently of the package's incremental
caches and delta formulas; the ``assert_*`` helpers compare those caches
against it.  :func:`assert_caches_match_rebuild`, the audit the walk
tests share, also compares each constraint with its own ``rebuild()``.
"""

from __future__ import annotations

import copy
import math
import random
from itertools import product

from sectorsearch.geometry import grid


# ---------------------------------------------------------------------------
# components and connectedness

def naive_components(base, colours):
    """Same-colour components via DFS; [(colour, vertex set), ...]."""
    seen = set()
    comps = []
    for v in sorted(colours):
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        comp = set()
        while stack:
            u = stack.pop()
            comp.add(u)
            for w in base.adjacent(u):
                if w not in seen and colours[w] == colours[v]:
                    seen.add(w)
                    stack.append(w)
        comps.append((colours[v], comp))
    return comps


def assert_index_matches_components(index, base, colours, n):
    """A component index (labels, sizes, per-colour counts, total and
    excess) agrees with the DFS components of ``colours``."""
    comps = naive_components(base, colours)
    labels = []
    for _, comp in comps:
        comp_labels = {index.label[u] for u in comp}
        assert len(comp_labels) == 1, "one component carries several labels"
        (lab,) = comp_labels
        assert index.size[lab] == len(comp)
        labels.append(lab)
    assert len(set(labels)) == len(labels), "two components share a label"
    assert set(index.size) == set(labels), "sizes kept for labels no vertex carries"
    per = dict.fromkeys(range(1, n + 1), 0)
    for colour, _ in comps:
        per[colour] += 1
    assert index.count == per
    assert index.total == len(comps)
    assert index.excess == sum(k - 1 for k in per.values() if k > 1)


def split_pieces(base, colours, v):
    """The pieces of v's same-colour component without ``v``, as frozen
    sets, by two DFS passes from scratch."""
    (component,) = [comp for _, comp in naive_components(base, colours) if v in comp]
    inside = {u: u != v and u in component for u in colours}
    return [frozenset(comp) for kept, comp in naive_components(base, inside) if kept]


def assert_split_matches_flood(base, colours, v, found):
    """A split result ``(pieces, closed)`` of ``v`` counts the pieces of
    v's component without v, and its closed pieces are all of them but
    one, each exactly one real piece and none twice."""
    pieces, closed = found
    real = split_pieces(base, colours, v)
    assert pieces == len(real), f"vertex {v}: {pieces} pieces, the flood finds {len(real)}"
    assert len(closed) == max(pieces - 1, 0), f"vertex {v}: {len(closed)} closed pieces"
    shapes = [frozenset(piece) for piece in closed]
    assert all(len(shape) == len(piece) for shape, piece in zip(shapes, closed)), (
        f"vertex {v}: a closed piece lists a vertex twice"
    )
    assert all(shape in real for shape in shapes), f"vertex {v}: a closed piece is no piece"
    assert len(set(shapes)) == len(shapes), f"vertex {v}: a piece is closed twice"


def assert_caches_match_rebuild(state, constraints):
    """Every cache of ``state`` and of ``constraints`` equals its
    from-scratch value; a failure names the first constraint and field
    that differ.

    - the class masks and sizes, recomputed from the colours;
    - the component index, if the state keeps one, against the DFS
      components, and each split it keeps against a flood of the split
      vertex's component without it;
    - each constraint, field by field, against a shallow copy of it that
      ran ``rebuild()``.  Every ``rebuild()`` assigns new cache objects, so
      the copy's rebuild leaves the original's caches as they were.  A
      paper-fast connected constraint's ``counts`` are estimates that
      drift by design, so that field is skipped;
    - each constraint's ``conflicts()``, against a scan of its
      ``var_violation``.
    """
    colours = state.snapshot()
    for c in range(state.n + 1):
        ranks = [r for r, v in enumerate(state.order) if colours[v] == c]
        assert state.class_mask[c] == sum(1 << r for r in ranks), f"state: class_mask[{c}]"
        assert state.class_size[c] == len(ranks), f"state: class_size[{c}]"
    index = state._index
    if index is not None:
        assert_index_matches_components(index, state.geometry, colours, state.n)
        for v, kept in index._splits.items():
            assert_split_matches_flood(state.geometry, colours, v, kept)
    for constraint in constraints:
        fresh = copy.copy(constraint)
        fresh.rebuild()
        drifts = ("counts",) if getattr(constraint, "mode", None) == "paper-fast" else ()
        for field, value in vars(fresh).items():
            if field not in drifts:
                assert vars(constraint)[field] == value, f"{constraint.id}: {field}"
        scanned = sum(
            1 << r for r, v in enumerate(state.order) if constraint.var_violation(v) > 0
        )
        assert constraint.conflicts() == scanned, f"{constraint.id}: conflicts()"


def _rel(relop, a, b):
    return {
        "<=": a <= b,
        "<": a < b,
        "=": a == b,
        "!=": a != b,
        ">": a > b,
        ">=": a >= b,
    }[relop]


def naive_connected_ok(base, colours, relop, n_val):
    comps = naive_components(base, colours)
    per = {}
    for colour, _ in comps:
        per[colour] = per.get(colour, 0) + 1
    return _rel(relop, len(comps), n_val) and all(k <= 1 for k in per.values())


def naive_connected_violation(base, colours, relop, n_val):
    comps = naive_components(base, colours)
    per = {}
    for colour, _ in comps:
        per[colour] = per.get(colour, 0) + 1
    counter = 0 if _rel(relop, len(comps), n_val) else 1
    return counter + sum(max(k - 1, 0) for k in per.values())


# ---------------------------------------------------------------------------
# compactness

def naive_border(geometry, colours, v):
    # the facets with the outside always separate v from another colour
    total = geometry.border_areas.get(v, 0)
    for w in geometry.adjacent(v):
        if colours[w] != colours[v]:
            total += geometry.edge_areas(v)[w]
    return total


def literal_neighbour_delta(geometry, colours, w, v, new_colour):
    """Case table for the signed change of ``Border(w)`` when its
    neighbour ``v`` is recoloured to ``new_colour``: the facet they share
    stops being border when ``w`` already has the new colour, and becomes
    border when ``v`` leaves ``w``'s colour."""
    cv, cw = colours[v], colours[w]
    area = geometry.edge_areas(v)[w]
    if cv != cw and cw == new_colour:
        return -area
    if cv == cw and cw != new_colour:
        return +area
    return 0


def naive_compact_b_total(geometry, colours, weight="identity"):
    f = (lambda x: x) if weight == "identity" else (lambda x: x * x)
    per_vertex = sum(f(naive_border(geometry, colours, v)) for v in geometry.vertices)
    return (per_vertex + f(geometry.outside_area())) / 2


def naive_compact_b_violation(geometry, colours, t, weight="identity"):
    return max(naive_compact_b_total(geometry, colours, weight) - t, 0)


def naive_sphere(volume, dim):
    if dim == 3:
        return math.pi ** (1 / 3) * (6 * volume) ** (2 / 3)
    return 2 * math.sqrt(math.pi * volume)


def naive_compact_a_violation(geometry, colours, t):
    total = 0.0
    for _, comp in naive_components(geometry, colours):
        sigma = sum(naive_border(geometry, colours, v) for v in comp)
        nu = sum(geometry.volume(v) for v in comp)
        total += sigma - naive_sphere(nu, geometry.dim)
    return max(total - t, 0.0)


# ---------------------------------------------------------------------------
# stretch sums

def naive_stretches(seq):
    spans = []
    start = 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or seq[i] != seq[start]:
            spans.append((start, i - 1))
            start = i
    return spans


def naive_stretch_violation(colours, values, relop, t):
    return sum(
        0 if _rel(relop, sum(values[a : b + 1]), t) else 1
        for a, b in naive_stretches(colours)
    )


def naive_stretch_ok(colours, values, relop, t):
    return naive_stretch_violation(colours, values, relop, t) == 0


def literal_min_sum_table_delta(colours, values, i, d, t):
    """Six-case closed-form delta for the >= form, sentinel stretches
    included.  Approximate in the singleton cases; kept to measure where
    it diverges from the exact delta."""
    spans = naive_stretches(colours)
    span = next((a, b) for a, b in spans if a <= i <= b)
    left, right = span
    sigma = sum(values[left : right + 1])
    val = values[i]
    if left > 0:
        prev = next((a, b) for a, b in spans if b == left - 1)
        c_left, s_left = colours[prev[0]], sum(values[prev[0] : prev[1] + 1])
    else:
        c_left, s_left = None, math.inf
    if right < len(colours) - 1:
        nxt = next((a, b) for a, b in spans if a == right + 1)
        c_right, s_right = colours[nxt[0]], sum(values[nxt[0] : nxt[1] + 1])
    else:
        c_right, s_right = None, math.inf

    merged = (s_left if c_left == d else 0) + sigma + (s_right if c_right == d else 0)
    if left == i == right:
        return (
            -(1 if (s_left < t and merged >= t) else 0)
            - (1 if sigma < t else 0)
            - (1 if (s_right < t and merged >= t) else 0)
        )
    if i == left:
        if d == c_left:
            return (1 if (sigma >= t and sigma - val < t) else 0) - (
                1 if (s_left < t and s_left + val >= t) else 0
            )
        return (1 if val < t else 0) + (1 if (sigma >= t and sigma - val < t) else 0)
    if i == right:
        if d == c_right:
            return (1 if (sigma >= t and sigma - val < t) else 0) - (
                1 if (s_right < t and s_right + val >= t) else 0
            )
        return (1 if val < t else 0) + (1 if (sigma >= t and sigma - val < t) else 0)
    if sigma < t:
        return 2
    frag_left = sum(values[left:i])
    frag_right = sum(values[i + 1 : right + 1])
    return (
        (1 if frag_left < t else 0)
        + (1 if val < t else 0)
        + (1 if frag_right < t else 0)
    )


# ---------------------------------------------------------------------------
# workload

def naive_balanced_violation(colours, values, n, delta_scaled):
    sums = {c: 0 for c in range(1, n + 1)}
    for v, val in values.items():
        sums[colours[v]] += val
    total = sum(values.values())
    dev = sum(abs(n * sums[c] - total) for c in sums)
    return max(dev - delta_scaled, 0)


def naive_bounded_violation(colours, values, n, relop, t):
    sums = {c: 0 for c in range(1, n + 1)}
    for v, val in values.items():
        sums[colours[v]] += val
    total = 0
    for x in sums.values():
        if relop == "<=":
            total += max(x - t, 0)
        elif relop == "<":
            total += max(x - t + 1, 0)
        elif relop == ">=":
            total += max(t - x, 0)
        elif relop == ">":
            total += max(t - x + 1, 0)
        elif relop == "=":
            total += abs(x - t)
        else:
            total += 1 if x == t else 0
    return total


# ---------------------------------------------------------------------------
# non-border

def naive_nonborder_violation(base, colours, path_vertices):
    on_path = set(path_vertices)
    total = 0
    for v in path_vertices:
        for w in base.adjacent(v):
            if w not in on_path and colours[w] != colours[v]:
                total += 1
    return total


# ---------------------------------------------------------------------------
# instance builders

GRID_CHOICES = [
    (2, 2, 1, 2),
    (2, 3, 1, 2),
    (3, 2, 1, 2),
    (2, 4, 1, 2),
    (4, 2, 1, 2),
    (2, 2, 2, 3),
    (3, 1, 1, 2),
    (5, 1, 1, 2),
    (6, 1, 1, 2),
    (8, 1, 1, 2),
]


def random_geometry(rng, max_cells=8):
    while True:
        w, h, d, dim = rng.choice(GRID_CHOICES)
        if w * h * d <= max_cells:
            return grid(w, h, d, dim=dim)


def random_colours(rng, geometry, n):
    return {v: rng.randint(1, n) for v in sorted(geometry.vertices)}


def monotone_path(rng, width, height, max_len=None):
    """Random monotone walk over a 2D grid, as a vertex list."""
    x = rng.randrange(width)
    y = rng.randrange(height)
    out = [x + width * y]
    limit = max_len or (width + height)
    while len(out) < limit:
        steps = []
        if x + 1 < width:
            steps.append("x")
        if y + 1 < height:
            steps.append("y")
        if not steps:
            break
        if rng.choice(steps) == "x":
            x += 1
        else:
            y += 1
        out.append(x + width * y)
    return out


def all_colourings(vertices, n):
    vertices = sorted(vertices)
    for combo in product(range(1, n + 1), repeat=len(vertices)):
        yield dict(zip(vertices, combo))
