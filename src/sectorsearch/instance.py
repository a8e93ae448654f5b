"""Instance and solution files, synthetic generation, model assembly.

Both file formats are line oriented and canonical: the writer emits
sections and keys in one fixed order with plain integer formatting, so a
save/load round trip reproduces the file byte for byte and golden files
stay stable across platforms.  ``#`` starts a comment when reading.

The ``[grid]`` and ``[search]`` keys are the fields of :class:`GridSpec`
and :class:`SearchConfig`; ``loads`` checks each value on its line, so a
bad one is named with its ``file:line``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .constraints import (
    BalancedConstraint,
    BoundedConstraint,
    CompactConstraint,
    ConnectedConstraint,
    NonBorderConstraint,
    StretchSumConstraint,
)
from .engine import Model, SearchConfig, check_parameter
from .errors import FormatError, InputError
from .geometry import Geometry, grid, grid_vertices
from .state import ColourState
from .traffic import FlightPlan, dwell_values, validate, visited_path

INSTANCE_MAGIC = "sector-instance 1"
SOLUTION_MAGIC = "sector-solution 1"

# each kind with the parameters it cannot be built without and the
# optional ones it reads; a constraint takes no other parameter.  Build
# resolves ``flight`` and ``counter_min``/``counter_max`` and passes every
# other parameter to the kind's constructor as the keyword of that name.
CONSTRAINT_KINDS = {
    "connected": (("counter",), ("relop", "counter_min", "counter_max", "mode")),
    "compact": (("threshold",), ("mode", "weight_fn", "probe")),
    "balanced": (("delta_scaled",), ()),
    "balanced_size": (("delta_scaled",), ()),
    "bounded": (("threshold",), ("relop",)),
    "stretchsum": (("flight",), ("relop", "threshold")),
    "nonborder": (("flight",), ()),
}


@dataclass
class GridSpec:
    width: int
    height: int
    depth: int = 1
    dim: int = 2
    cell_area: int = 1
    cell_volume: int = 1

    def build(self) -> Geometry:
        return grid(
            self.width,
            self.height,
            self.depth,
            cell_area=self.cell_area,
            cell_volume=self.cell_volume,
            dim=self.dim,
        )


_GRID_KEYS = tuple(f.name for f in fields(GridSpec))


@dataclass
class ConstraintSpec:
    id: str
    kind: str
    weight: int = 1
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class Instance:
    colours: int
    grid: GridSpec
    workloads: Dict[int, int]
    flights: List[FlightPlan]
    constraints: List[ConstraintSpec]
    search: SearchConfig

    def workload_total(self) -> int:
        return sum(self.workloads.values())

    def validate(self) -> Geometry:
        """Check the instance against its grid; returns the grid geometry.

        The geometry is kept with the spec it was built from and built
        again only once ``grid`` differs from that spec, so ``loads``
        followed by ``build`` makes one geometry; the checks run every
        time.
        """
        built = getattr(self, "_built_grid", None)
        if built is None or built[0] != self.grid:
            built = (replace(self.grid), self.grid.build())
            self._built_grid = built
        g = built[1]
        for v in g.vertices:
            if v not in self.workloads:
                raise FormatError("workloads", f"vertex {v} has no workload")
        for v in self.workloads:
            if v not in g.vertices:
                raise FormatError("workloads", f"unknown vertex {v}")
        for i, plan in enumerate(self.flights):
            try:
                validate(plan, g)
            except InputError as exc:
                raise FormatError(f"flight {i}", str(exc)) from exc
        for spec in self.constraints:
            where = f"constraint {spec.id}"
            if spec.kind not in CONSTRAINT_KINDS:
                raise FormatError(where, f"unknown constraint kind {spec.kind!r}")
            required, optional = CONSTRAINT_KINDS[spec.kind]
            for param in spec.params:
                if param not in required and param not in optional:
                    raise FormatError(where, f"kind {spec.kind} takes no parameter {param!r}")
            if "counter_min" in spec.params or "counter_max" in spec.params:
                required += ("counter_min", "counter_max")
            for param in required:
                if param not in spec.params:
                    raise FormatError(where, f"missing {param}")
            low, high = spec.params.get("counter_min"), spec.params.get("counter_max")
            if low is not None and low > high:
                raise FormatError(
                    where, f"counter_min {low} exceeds counter_max {high}: no counter value"
                )
            flight = spec.params.get("flight")
            if flight is not None and not 0 <= flight < len(self.flights):
                raise FormatError(where, f"flight {flight} does not exist")
        return g

    def build(
        self,
        colours: Optional[Dict[int, int]] = None,
        mode_override: Optional[str] = None,
        weight_overrides: Optional[Dict[str, int]] = None,
    ) -> Model:
        """Assemble the state and all configured constraints into a model.

        Each constraint's parameters reach its constructor as keywords of
        the same name; an ``InputError`` the constructor raises becomes a
        ``FormatError`` naming the constraint.
        """
        geometry = self.validate()
        if colours is not None:
            unknown = sorted(set(colours) - geometry.vertices)
            if unknown:
                raise FormatError("solution", f"unknown vertices {unknown}")
        unknown = sorted(set(weight_overrides or ()) - {spec.id for spec in self.constraints})
        if unknown:
            raise InputError(f"weight overrides for unknown constraint ids {unknown}")
        state = ColourState(geometry, self.colours, colours=colours)
        entries = []
        counters: Dict[str, Sequence[int]] = {}
        for spec in self.constraints:
            weight = (weight_overrides or {}).get(spec.id, spec.weight)
            kwargs = dict(spec.params, id=spec.id)
            if "counter_min" in kwargs:
                low, high = kwargs.pop("counter_min"), kwargs.pop("counter_max")
                counters[spec.id] = tuple(range(low, high + 1))
            if "flight" in kwargs:
                plan = self.flights[kwargs.pop("flight")]
            if spec.kind == "connected":
                kwargs.setdefault("relop", "=")
                if mode_override:
                    kwargs["mode"] = mode_override
                cls, inputs = ConnectedConstraint, ()
            elif spec.kind == "compact":
                cls, inputs = CompactConstraint, ()
            elif spec.kind == "balanced":
                cls, inputs = BalancedConstraint, (self.workloads,)
            elif spec.kind == "balanced_size":
                volumes = {v: geometry.volume(v) for v in geometry.vertices}
                cls, inputs = BalancedConstraint, (volumes,)
            elif spec.kind == "bounded":
                kwargs.setdefault("relop", "<=")
                cls, inputs = BoundedConstraint, (self.workloads,)
            elif spec.kind == "stretchsum":
                cls, inputs = StretchSumConstraint, (visited_path(plan), dwell_values(plan))
            else:  # nonborder, the last kind validate admits
                cls, inputs = NonBorderConstraint, (visited_path(plan),)
            try:
                constraint = cls(state, *inputs, **kwargs)
            except InputError as exc:
                raise FormatError(f"constraint {spec.id}", str(exc)) from exc
            entries.append((constraint, weight))
        return Model(state, entries, searchable_counters=counters)


# ---------------------------------------------------------------------------
# serialisation

#: every ``[search]`` key, in file order, with the type of its default
_SEARCH_KEYS = {f.name: type(f.default) for f in fields(SearchConfig)}

#: every constraint parameter, in file order, with its type
_CONSTRAINT_KEYS = (
    ("relop", str),
    ("counter", int),
    ("counter_min", int),
    ("counter_max", int),
    ("mode", str),
    ("threshold", int),
    ("weight_fn", str),
    ("probe", str),
    ("delta_scaled", int),
    ("flight", int),
)


def save(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(instance))


def dumps(instance: Instance) -> str:
    lines = [INSTANCE_MAGIC]
    lines.append("[model]")
    lines.append(f"colours {instance.colours}")
    g = instance.grid
    lines.append("[grid]")
    for key in _GRID_KEYS:
        lines.append(f"{key} {getattr(g, key)}")
    lines.append("[workloads]")
    for v in sorted(instance.workloads):
        lines.append(f"w {v} {instance.workloads[v]}")
    for i, plan in enumerate(instance.flights):
        lines.append(f"[flight {i}]")
        for v, t_in, t_out in plan.legs:
            lines.append(f"leg {v} {t_in} {t_out}")
    for spec in instance.constraints:
        lines.append(f"[constraint {spec.id}]")
        lines.append(f"kind {spec.kind}")
        lines.append(f"weight {spec.weight}")
        for key, _ in _CONSTRAINT_KEYS:
            if key in spec.params:
                lines.append(f"{key} {spec.params[key]}")
    lines.append("[search]")
    for key in _SEARCH_KEYS:
        value = getattr(instance.search, key)
        if key == "hard":
            value = ",".join(value) or "-"
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), origin=path)


def _body(text: str, magic: str, origin: str) -> List[Tuple[int, str]]:
    """The numbered non-blank lines after the ``magic`` header, with
    comments stripped; raises unless the first such line is the header."""
    lines = ((no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), 1))
    body = [(no, line) for no, line in lines if line]
    if not body or body[0][1] != magic:
        raise FormatError(f"{origin}:1", f"expected header {magic!r}")
    return body[1:]


def loads(text: str, origin: str = "<string>") -> Instance:
    colours: Optional[int] = None
    grid_fields: Dict[str, int] = {}
    workloads: Dict[int, int] = {}
    flights: Dict[int, List[Tuple[int, int, int]]] = {}
    constraints: List[ConstraintSpec] = []
    search_fields: Dict[str, object] = {}
    hard_where = ""
    # the line that first gave each section and each key; a workload line
    # is checked against ``workloads`` instead, as there is one per vertex
    first: Dict[Tuple[object, ...], str] = {}

    def once(key: Tuple[object, ...], what: str, where: str) -> None:
        """Refuse ``what``, on line ``where``, when a line before gave it."""
        earlier = first.setdefault(key, where)
        if earlier != where:
            raise FormatError(where, f"{what} given twice, first at {earlier}")

    section = None
    section_arg = None
    for lineno, line in _body(text, INSTANCE_MAGIC, origin):
        where = f"{origin}:{lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise FormatError(where, f"malformed section header {line!r}")
            parts = line[1:-1].split()
            section = parts[0]
            section_arg = parts[1] if len(parts) > 1 else None
            if section == "flight":
                if section_arg is None or not section_arg.isdigit():
                    raise FormatError(where, "flight sections need a numeric id")
                section_arg = str(int(section_arg))
                flights[int(section_arg)] = []
            elif section == "constraint":
                if section_arg is None:
                    raise FormatError(where, "constraint sections need an id")
                constraints.append(ConstraintSpec(id=section_arg, kind=""))
            elif section not in ("model", "grid", "workloads", "search"):
                raise FormatError(where, f"unknown section {section!r}")
            once((section, section_arg), f"section {line}", where)
            continue
        if section is None:
            raise FormatError(where, f"content outside any section: {line!r}")
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if section not in ("workloads", "flight"):
            # an unknown key is refused below, at its first occurrence
            once((section, section_arg, key), f"key {key!r}", where)
        try:
            if section == "model":
                if key != "colours":
                    raise FormatError(where, f"unknown model key {key!r}")
                colours = int(rest)
                if colours < 1:
                    raise FormatError(where, f"colours must be at least 1, got {colours}")
            elif section == "grid":
                if key not in _GRID_KEYS:
                    raise FormatError(where, f"unknown grid key {key!r}")
                grid_fields[key] = int(rest)
                if grid_fields[key] < 1:
                    raise FormatError(where, f"{key} must be at least 1, got {grid_fields[key]}")
            elif section == "workloads":
                if key != "w":
                    raise FormatError(where, f"unknown workloads key {key!r}")
                v, value = rest.split()
                vertex = int(v)
                if vertex in workloads:
                    # every earlier line starting "w " is a workload line:
                    # elsewhere the key would have been refused
                    no = next(
                        no for no, earlier in _body(text, INSTANCE_MAGIC, origin)
                        if earlier.startswith("w ") and int(earlier.split()[1]) == vertex
                    )
                    raise FormatError(
                        where, f"workload of vertex {vertex} given twice, first at {origin}:{no}"
                    )
                workloads[vertex] = int(value)
            elif section == "flight":
                if key != "leg":
                    raise FormatError(where, f"unknown flight key {key!r}")
                v, t_in, t_out = rest.split()
                flights[int(section_arg)].append((int(v), int(t_in), int(t_out)))
            elif section == "constraint":
                spec = constraints[-1]
                if key == "kind":
                    spec.kind = rest
                elif key == "weight":
                    spec.weight = int(rest)
                else:
                    caster = dict(_CONSTRAINT_KEYS).get(key)
                    if caster is None:
                        raise FormatError(where, f"unknown constraint key {key!r}")
                    spec.params[key] = caster(rest)
            elif section == "search":
                caster = _SEARCH_KEYS.get(key)
                if caster is None:
                    raise FormatError(where, f"unknown search key {key!r}")
                if key == "hard":
                    value = tuple(p for p in rest.split(",") if p and p != "-")
                    hard_where = where
                else:
                    value = caster(rest)
                check_parameter(key, value)
                search_fields[key] = value
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(where, f"bad value in {line!r}: {exc}") from exc

    if colours is None:
        raise FormatError(f"{origin}:[model]", "missing colours")
    for required in ("width", "height"):
        if required not in grid_fields:
            raise FormatError(f"{origin}:[grid]", f"missing {required}")
    if sorted(flights) != list(range(len(flights))):
        raise FormatError(
            f"{origin}:[flight]", f"flight ids must be 0..{len(flights) - 1}"
        )
    plans = [FlightPlan(tuple(flights[i])) for i in sorted(flights)]
    for spec_c in constraints:
        if not spec_c.kind:
            raise FormatError(
                f"{origin}:[constraint {spec_c.id}]", "missing kind"
            )
    # checked once every section is read: [search] may precede the constraints
    ids = {spec_c.id for spec_c in constraints}
    for cid in (c for c in search_fields.get("hard", ()) if c not in ids):
        raise FormatError(hard_where, f"unknown constraint id {cid!r}")
    instance = Instance(
        colours=colours,
        grid=GridSpec(**grid_fields),
        workloads=workloads,
        flights=plans,
        constraints=constraints,
        search=SearchConfig(**search_fields),
    )
    instance.validate()
    return instance


def save_solution(
    colours: Dict[int, int], path: str, counters: Optional[Dict[str, int]] = None
) -> None:
    """Write the colours, then one ``counter <id> <value>`` line per
    searched counter, in the order given."""
    lines = [SOLUTION_MAGIC]
    for v in sorted(colours):
        lines.append(f"colour {v} {colours[v]}")
    for cid, value in (counters or {}).items():
        lines.append(f"counter {cid} {value}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_solution(path: str) -> Tuple[Dict[int, int], Dict[str, int]]:
    """The colours of a solution file and its counter values, constraint
    id to value (empty for a colour-only file)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    colours: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for no, line in _body(text, SOLUTION_MAGIC, path):
        where = f"{path}:{no}"
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("colour", "counter"):
            raise FormatError(
                where, "expected 'colour <vertex> <colour>' or 'counter <id> <value>'"
            )
        if parts[0] == "counter":
            cid = parts[1]
            if cid in counters:
                raise FormatError(where, f"counter {cid} repeated")
            try:
                counters[cid] = int(parts[2])
            except ValueError:
                raise FormatError(where, f"expected an integer value in {line!r}") from None
            continue
        try:
            v, colour = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(where, f"expected integers in {line!r}") from None
        if v in colours:
            raise FormatError(where, f"vertex {v} repeated")
        colours[v] = colour
    return colours, counters


# ---------------------------------------------------------------------------
# synthetic generation

def generate(
    seed: int,
    width: int,
    height: int,
    depth: int = 1,
    dim: int = 2,
    colours: int = 4,
    flights: int = 1,
    dwell: Tuple[int, int] = (30, 180),
    workload: Tuple[int, int] = (1, 9),
    balanced_share: float = 0.10,
    with_compact: bool = False,
    with_nonborder: bool = False,
    bounded_threshold: Optional[int] = None,
) -> Instance:
    """Deterministic synthetic instance over a grid.

    Flights are random monotone grid paths (steps only increase
    coordinates), so they are simple and adjacent by construction; the
    balance threshold defaults to a deviation budget of
    ``balanced_share`` of the total workload, in scaled units.  No
    geometry is built here: the instance is valid by construction, and
    ``Instance.build`` and ``loads`` check it against its grid.
    """
    if colours < 1:
        raise InputError(f"need at least one colour, got colours={colours}")
    rng = random.Random(seed)
    workloads = {
        v: rng.randint(*workload) for v in grid_vertices(width, height, depth, dim)
    }

    def vid(x: int, y: int, z: int) -> int:
        return x + width * (y + height * z)

    plans: List[FlightPlan] = []
    for _ in range(flights):
        x = rng.randrange(max(width - 1, 1))
        y = rng.randrange(height)
        z = 0
        legs: List[Tuple[int, int, int]] = []
        t = 0
        length = rng.randint(min(width, height), width + height - 1)
        for _ in range(length):
            duration = rng.randint(*dwell)
            legs.append((vid(x, y, z), t, t + duration))
            t += duration
            steps = []
            if x + 1 < width:
                steps.append("x")
            if y + 1 < height:
                steps.append("y")
            if depth > 1 and z + 1 < depth:
                steps.append("z")
            if not steps:
                break
            step = rng.choice(steps)
            if step == "x":
                x += 1
            elif step == "y":
                y += 1
            else:
                z += 1
        plans.append(FlightPlan(tuple(legs)))

    total = sum(workloads.values())
    specs = [
        ConstraintSpec(
            id="connected",
            kind="connected",
            params={"relop": "=", "counter": colours, "mode": "exact"},
        ),
        ConstraintSpec(
            id="balance",
            kind="balanced",
            params={"delta_scaled": round(balanced_share * colours * total)},
        ),
    ]
    for i in range(flights):
        specs.append(
            ConstraintSpec(
                id=f"dwell{i}",
                kind="stretchsum",
                params={"flight": i, "relop": ">=", "threshold": 120},
            )
        )
    if with_nonborder:
        for i in range(flights):
            specs.append(
                ConstraintSpec(id=f"inside{i}", kind="nonborder", params={"flight": i})
            )
    if with_compact:
        # the outside area, which every colouring pays, plus two unit
        # facets per cell for the borders between colours
        if dim == 2:
            outside = 2 * (width + height)
        else:
            outside = 2 * (width * height + (width + height) * depth)
        budget = outside + 2 * len(workloads)
        specs.append(
            ConstraintSpec(
                id="compactness",
                kind="compact",
                params={"mode": "B", "threshold": budget, "weight_fn": "identity"},
            )
        )
    if bounded_threshold is not None:
        specs.append(
            ConstraintSpec(
                id="cap",
                kind="bounded",
                params={"relop": "<=", "threshold": bounded_threshold},
            )
        )
    instance = Instance(
        colours=colours,
        grid=GridSpec(width=width, height=height, depth=depth, dim=dim),
        workloads=workloads,
        flights=plans,
        constraints=specs,
        search=SearchConfig(seed=seed),
    )
    return instance
