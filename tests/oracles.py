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

from sectorsearch.geometry import Geometry, grid, grid_vertices


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


def naive_stray(base, colours, n):
    """The mask over the sorted vertices of the vertices outside their
    colour's largest DFS component, where a tie goes to the component
    holding the lowest vertex."""
    rank = {v: r for r, v in enumerate(sorted(colours))}
    per = {c: [] for c in range(1, n + 1)}
    for colour, comp in naive_components(base, colours):
        per[colour].append(comp)
    stray = 0
    for comps in per.values():
        if len(comps) > 1:
            kept = max(comps, key=lambda comp: (len(comp), -min(comp)))
            stray |= sum(1 << rank[u] for comp in comps if comp is not kept for u in comp)
    return stray


def index_counts(index):
    """The component count of every colour 1..n, the number of its masks
    in a component index."""
    return {c: len(index.component_masks(c)) for c in range(1, index.n + 1)}


def assert_index_matches_components(index, base, colours, n):
    """A component index (labels and the component masks of every colour
    1..n) agrees with the DFS components of ``colours``."""
    comps = naive_components(base, colours)
    rank = {v: r for r, v in enumerate(sorted(colours))}
    per = {c: {} for c in range(1, n + 1)}
    labels = []
    for colour, comp in comps:
        comp_labels = {index.label[u] for u in comp}
        assert len(comp_labels) == 1, "one component carries several labels"
        (lab,) = comp_labels
        labels.append(lab)
        per[colour][lab] = comp
    assert len(set(labels)) == len(labels), "two components share a label"
    for c, members in per.items():
        masks = index.component_masks(c)
        assert dict(masks) == {
            lab: sum(1 << rank[u] for u in comp) for lab, comp in members.items()
        }, f"component masks of colour {c}"
        union = 0
        for mask in masks.values():
            union |= mask
        assert union == sum(1 << rank[v] for v in colours if colours[v] == c), (
            f"the component masks of colour {c} are not its class"
        )
        assert {lab: mask.bit_count() for lab, mask in masks.items()} == {
            lab: len(comp) for lab, comp in members.items()
        }, f"component sizes of colour {c}"


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

    - the class masks and the unused colours, recomputed from the colours;
    - the component index, if the state keeps one: that it reads the
      state's own colour map, its components against the DFS components,
      and each split it keeps against a flood of the split vertex's
      component without it;
    - each constraint, field by field, against a shallow copy of it that
      ran ``rebuild()``.  Every ``rebuild()`` assigns new cache objects, so
      the copy's rebuild leaves the original's caches as they were.  A
      paper-fast connected constraint's ``count``, ``ncc`` and ``excess``
      are estimates that drift by design, so those fields are skipped;
    - each constraint's ``conflicts()``, against :func:`expected_conflicts`;
    - the state's ``border_mask()``, against a scan of every vertex's
      neighbours.
    """
    colours = state.snapshot()
    for c in range(state.n + 1):
        ranks = [r for r, v in enumerate(state.order) if colours[v] == c]
        assert state.class_mask[c] == sum(1 << r for r in ranks), f"state: class_mask[{c}]"
    used = set(colours.values())
    unused = [c for c in range(1, state.n + 1) if c not in used]
    assert state.unused_colours() == unused, "state: unused_colours()"
    assert state.border_mask() == naive_border_mask(state.geometry, colours), "state: border_mask()"
    index = state._index
    if index is not None:
        assert index._colour is state._colour, "state: the index reads another colour map"
        assert_index_matches_components(index, state.geometry, colours, state.n)
        for v, kept in index._splits.items():
            assert_split_matches_flood(state.geometry, colours, v, kept)
    for constraint in constraints:
        fresh = copy.copy(constraint)
        fresh.rebuild()
        drifts = ("count", "ncc", "excess") if getattr(constraint, "mode", None) == "paper-fast" else ()
        for field, value in vars(fresh).items():
            if field not in drifts:
                assert vars(constraint)[field] == value, f"{constraint.id}: {field}"
        expected = expected_conflicts(state, constraint)
        assert constraint.conflicts() == expected, f"{constraint.id}: conflicts()"


def expected_conflicts(state, constraint):
    """What ``constraint.conflicts()`` must be: for exact connectedness, a
    flood of each fragmented class marking all but its largest
    component; for every other constraint, a scan of its
    ``var_violation`` if it is violated, else 0."""
    if getattr(constraint, "mode", None) == "exact":
        return naive_stray(state.geometry, state.snapshot(), state.n)
    if not constraint.violation():
        return 0
    return sum(1 << r for r, v in enumerate(state.order) if constraint.var_violation(v) > 0)


def naive_border_mask(geometry, colours):
    """The vertices with a differently coloured neighbour, as a mask over
    the sorted vertices."""
    return sum(
        1 << r
        for r, v in enumerate(sorted(geometry.vertices))
        if any(colours[w] != colours[v] for w in geometry.adjacent(v))
    )


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


def facet_grid(w, h, d=1, cell_area=1, cell_volume=1, dim=None, seed=None):
    """The geometry ``grid(w, h, d, ...)`` describes, built the long way:
    every facet of every cell numbered, then handed to the validated
    :class:`Geometry` constructor, which reads the adjacency off the
    facets two cells share.  With a ``seed``, the facet ids are shuffled
    and so is each cell's list of them."""
    vertices = grid_vertices(w, h, d, dim)
    if dim is None:
        dim = 3
    # per axis, a low border facet, then the facet towards the next cell
    # or a high border facet, numbered in that order
    facets_of = {v: [] for v in vertices}
    strides = ((w, 1), (h, w), (d, w * h))[: 3 if dim == 3 else 2]
    fid = 0
    v = 0
    for z in range(d):
        for y in range(h):
            for x in range(w):
                own = facets_of[v]
                for coord, (extent, stride) in zip((x, y, z), strides):
                    if coord == 0:
                        own.append(fid)
                        fid += 1
                    own.append(fid)
                    if coord != extent - 1:
                        facets_of[v + stride].append(fid)
                    fid += 1
                v += 1
    if seed is not None:
        rng = random.Random(seed)
        renamed = rng.sample(range(fid), fid)
        for own in facets_of.values():
            own[:] = [renamed[f] for f in own]
            rng.shuffle(own)
    areas = dict.fromkeys(range(fid), cell_area)
    volumes = dict.fromkeys(facets_of, cell_volume)
    return Geometry(facets_of, areas, volumes, dim)


def relabelled(g, f, area=None, volume=None):
    """``g`` with every vertex id ``v`` renamed to ``f(v)``: one facet per
    edge and one border facet per border vertex, with the same areas, or
    with ``area(v, w)`` for the facet of each edge ``v < w`` when given,
    and the same volumes, or ``volume(v)`` when given."""
    facets_of = {f(v): [] for v in g.vertices}
    areas = {}
    for v, w in g.edges():
        facets_of[f(v)].append(len(areas))
        facets_of[f(w)].append(len(areas))
        areas[len(areas)] = g.edge_areas(v)[w] if area is None else area(v, w)
    for v, border in g.border_areas.items():
        facets_of[f(v)].append(len(areas))
        areas[len(areas)] = border
    volume = g.volume if volume is None else volume
    return Geometry(facets_of, areas, {f(v): volume(v) for v in g.vertices}, g.dim)


def permuted(g, seed, share=1.0):
    """``g`` with a seeded share of its vertex ids shuffled among
    themselves, so the ids stay 0..V-1 but most edges join far ranks."""
    rng = random.Random(seed)
    ids = sorted(g.vertices)
    moved = rng.sample(ids, round(share * len(ids)))
    renamed = dict(zip(moved, rng.sample(moved, len(moved))))
    return relabelled(g, lambda v: renamed.get(v, v))


#: geometries whose vertex ids are not their ranks in sorted order, or
#: whose edges join far ranks, each built on call
RANK_GEOMETRIES = {
    "2d-spread-ids": lambda: relabelled(grid(7, 5, dim=2), lambda v: 3 * v + 11),
    "3d-spread-ids": lambda: relabelled(grid(4, 3, 3, dim=3), lambda v: 5 * v + 2),
    "mixed-areas": lambda: relabelled(
        grid(9, 6, dim=2), lambda v: v * v + 1, area=lambda v, w: 1 + (v * w) % 4
    ),
    "30x30-partly-permuted": lambda: permuted(grid(30, 30, dim=2), seed=2, share=0.05),
    "80x80-permuted": lambda: permuted(grid(80, 80, dim=2), seed=1),
}


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
