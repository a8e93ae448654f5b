"""Command line interface.

Subcommands: ``generate`` (synthetic instances), ``solve`` (local search),
``check`` (scratch evaluation of a solution file), ``oracle`` (brute-force
enumeration) and ``probe-bench`` (probe-cost scaling report).  Exit codes:
0 success, 1 infeasibility or remaining violations, 2 usage/format errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from .bench import bench_probe_scaling, format_report
from .constraints.connected import MODES
from .engine import TOLERANCE, search
from .errors import FormatError, InitError, InputError
from .instance import generate, load, load_solution, save, save_solution
from .systematic import brute_force_solve


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _parse_weights(text: Optional[str]) -> Dict[str, int]:
    weights: Dict[str, int] = {}
    if not text:
        return weights
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not key or not value:
            raise InputError(f"bad weight entry {part!r}, expected id=value")
        try:
            weights[key] = int(value)
        except ValueError:
            raise InputError(f"bad weight {value!r} for {key!r}, expected an integer") from None
    return weights


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _sizes(text: str) -> Tuple[int, ...]:
    sizes = tuple(_positive_int(part) for part in text.split(","))
    if len(sizes) < 2:
        raise argparse.ArgumentTypeError(f"expected at least two sizes, got {text!r}")
    return sizes


def _scratch_violations(instance, colours, mode=None, weights=None, counters=None):
    """Build ``instance`` with ``colours`` (and ``counters``, constraint id
    to counter value, in place of the file's) and evaluate it from scratch:
    each constraint's id and violation, and the weighted total."""
    model = instance.build(colours=colours, mode_override=mode, weight_overrides=weights)
    for cid, value in (counters or {}).items():
        domain = model.searchable_counters.get(cid)
        if domain is None:
            raise FormatError("solution", f"counter {cid} names no searchable counter")
        if value not in domain:
            raise FormatError(
                "solution", f"counter {cid} value {value} outside {domain[0]}..{domain[-1]}"
            )
        model.constraint(cid).commit_counter(value)
    parts = []
    total = 0.0
    for constraint, weight in model.entries:
        violation = constraint.violation()
        total += weight * violation
        parts.append((constraint.id, violation))
    return parts, total


def _cmd_generate(args) -> int:
    instance = generate(
        seed=args.seed,
        width=args.width,
        height=args.height,
        depth=args.depth,
        dim=args.dim,
        colours=args.colours,
        flights=args.flights,
        dwell=(args.dwell_min, args.dwell_max),
        workload=(args.workload_min, args.workload_max),
        with_compact=args.with_compact,
        with_nonborder=args.with_nonborder,
        bounded_threshold=args.bounded,
    )
    save(instance, args.output)
    print(
        f"wrote {args.output}: {args.width}x{args.height}x{args.depth} grid, "
        f"{len(instance.workloads)} vertices, workload total "
        f"{instance.workload_total()}, {len(instance.flights)} flights, "
        f"{len(instance.constraints)} constraints"
    )
    return 0


def _cmd_solve(args) -> int:
    instance = load(args.instance)
    cfg = instance.search
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.iters is not None:
        cfg = replace(cfg, max_iterations=args.iters)
    if args.hard is not None:
        cfg = replace(cfg, hard=tuple(p for p in args.hard.split(",") if p))
    weights = _parse_weights(args.weights)

    best = None
    for offset in range(args.parallel):
        model = instance.build(mode_override=args.mode, weight_overrides=weights)
        result = search(model, replace(cfg, seed=cfg.seed + offset))
        print(
            f"seed {result.seed}: violation {_fmt(result.violation)} "
            f"after {result.iterations} iterations"
        )
        if best is None or (result.violation, result.seed) < (best.violation, best.seed):
            best = result
    # the reported total is the rebuilt best state's, never the search's caches
    _, total = _scratch_violations(instance, best.colours, args.mode, weights, best.counters)
    line = f"best: seed {best.seed} violation {_fmt(total)}"
    if abs(total - best.violation) > TOLERANCE:
        line += f" (the search reported {_fmt(best.violation)})"
    print(line)
    for cid, value in best.counters.items():
        print(f"counter {cid} {value}")
    if args.output:
        save_solution(best.colours, args.output, best.counters)
        print(f"wrote solution {args.output}")
    if args.trace:
        ids = [spec.id for spec in instance.constraints]
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write("iteration,total," + ",".join(ids) + "\n")
            for iteration, row_total, parts in best.trace:
                row = [str(iteration), _fmt(row_total)] + [_fmt(p) for p in parts]
                handle.write(",".join(row) + "\n")
        print(f"wrote trace {args.trace}")
    return 0 if total <= TOLERANCE else 1


def _cmd_check(args) -> int:
    instance = load(args.instance)
    colours, counters = load_solution(args.solution)
    weights = _parse_weights(args.weights)
    parts, total = _scratch_violations(instance, colours, weights=weights, counters=counters)
    for cid, violation in parts:
        print(f"constraint {cid} violation {_fmt(violation)}")
    print(f"total {_fmt(total)}")
    return 0 if total <= TOLERANCE else 1


def _cmd_oracle(args) -> int:
    instance = load(args.instance)
    model = instance.build()
    solutions = brute_force_solve(model, limit=args.limit)
    print(f"solutions {len(solutions)}")
    if args.list:
        for colouring in solutions:
            row = " ".join(f"{v}={colouring[v]}" for v in sorted(colouring))
            print(f"colouring {row}")
    return 0 if solutions else 1


def _cmd_probe_bench(args) -> int:
    report = bench_probe_scaling(sizes=args.sizes, probes=args.probes, seed=args.seed)
    print(format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorsearch",
        description="Constraint-based local search for sectorising region graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--colours", type=int, default=4)
    p.add_argument("--flights", type=int, default=1)
    p.add_argument("--dwell-min", type=int, default=30)
    p.add_argument("--dwell-max", type=int, default=180)
    p.add_argument("--workload-min", type=int, default=1)
    p.add_argument("--workload-max", type=int, default=9)
    p.add_argument("--with-compact", action="store_true")
    p.add_argument("--with-nonborder", action="store_true")
    p.add_argument("--bounded", type=int, default=None,
                   help="add a bounded-workload cap at this threshold")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run the local search on an instance")
    p.add_argument("instance")
    p.add_argument("-o", "--output", default=None, help="solution file")
    p.add_argument("--trace", default=None, help="violation trace CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=None,
                   help="override the connectedness probe mode")
    p.add_argument("--weights", default=None, help="id=value,... overrides")
    p.add_argument("--hard", default=None, help="comma list of hard constraint ids")
    p.add_argument("--parallel", type=_positive_int, default=1,
                   help="independent seeded runs, merged by best violation")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="evaluate a solution file from scratch")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--weights", default=None, help="id=value,... overrides, as for solve")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="brute-force enumeration of solutions")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=10, help="max vertex count")
    p.add_argument("--list", action="store_true", help="print every solution")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("probe-bench", help="probe-cost scaling report")
    p.add_argument("--sizes", type=_sizes, default="100,1000,10000",
                   help="comma list of at least two vertex counts")
    p.add_argument("--probes", type=_positive_int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_probe_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, InputError, InitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
