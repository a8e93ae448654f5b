#!/usr/bin/env python3
"""Speed numbers per workload: writes ``BENCH_<workload>.json``, or
compares two trees run for run.

Run from the repository root::

    python3 tools/bench.py                          # every workload, untraced
    python3 tools/bench.py --workload restart-3d --trace 1 --seeds 1 2
    python3 tools/bench.py --seconds 0 -o /tmp/bench
    python3 tools/bench.py compare HEAD~1 . --workload solve-20x20 --pairs 10

Each seed of each workload runs ``benchmark/run.py --workload W --seed S
--seconds T --trace 0|1`` in a fresh interpreter, one run at a time, and
the last line that run prints, its JSON report, is kept as it is.  The
file of a workload holds those reports, the seeds, ``--seconds``,
``--trace``, the Python version and the git revision of the checkout
(with ``dirty`` set when tracked files differ from it), so a speed claim
is a diff of two files written by the same command.  The benchmark is
called as it stands; nothing under ``benchmark/`` is read but its
workload names.

``compare PARENT CHANGE`` takes two trees, each a directory or a git
revision of this checkout, and copies them to fresh directories at paths
of equal length (``parent`` and ``change`` side by side), so neither
side's path costs more.  Pair ``i``, counted from 1, runs seed ``i``: for
each workload it runs ``benchmark/run.py`` untraced once in each copy,
one run at a time, the parent first in odd-numbered pairs and the
change first in even-numbered ones.  It then prints, per workload and
end-to-end metric, each side's median and quartiles, the pairs the
change won (ties count for neither), the gain of the medians against the
parent's quartile spread, and whether ``failed`` agrees in every run.
Under ``peak_rss_mb`` come each side's set-up counts (the ``set-ups N``
a run prints): a run repeats its set-up until ``SETUP_MIN_SECONDS`` have
passed, so a faster set-up runs more of them, and the memory a run peaks
at depends on that count.
The exact counts (``solved_frac``, ``best_violation``, ``iterations``)
are compared seed by seed between the sides, and each side's distinct
values are listed apart: ``best_violation`` sums floats in the batch
order that ``--seed`` shuffles, so one side may print two values whose
last digits differ, which is not a change of behaviour.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

from run import WORKLOADS  # noqa: E402

#: the counts ``benchmark/run.py`` prints that must not change with speed
EXACT = ("solved_frac", "best_violation", "iterations")


def _git(*args: str):
    """The output of a git command in the checkout, or None without git."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    """What one ``benchmark/run.py`` run in ``root`` prints, run in a
    fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {root} failed:\n{done.stderr}")
    return done.stdout


def _report(out: str) -> dict:
    """The JSON report a run prints on its last line."""
    return json.loads(out.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``benchmark/run.py`` run in a fresh interpreter; its report."""
    return _report(_run(ROOT, workload, seed, seconds, trace))


def bench(workload: str, seeds, seconds: float, trace: int, dirty) -> dict:
    """One workload's file; ``dirty`` is read before any file is written,
    as a written ``BENCH_*.json`` is itself a tracked file."""
    return {
        "workload": workload,
        "seeds": list(seeds),
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "revision": _git("rev-parse", "HEAD"),
        "dirty": dirty,
        "reports": [run_once(workload, seed, seconds, trace) for seed in seeds],
    }


# ---------------------------------------------------------------------------
# compare

def _copy_tree(source: str, dest: Path) -> None:
    """``source``, a directory or else a git revision of this checkout,
    copied to ``dest`` without version control or cached bytecode."""
    if Path(source).is_dir():
        shutil.copytree(source, dest, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        return
    tar = subprocess.run(["git", "archive", "--format=tar", source], cwd=ROOT,
                         capture_output=True)
    if tar.returncode != 0:
        raise SystemExit(f"{source} is neither a directory nor a revision: "
                         f"{tar.stderr.decode().strip()}")
    # the "data" filter, where this Python has it, refuses links and paths
    # that leave dest
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)


def exact_counts(out: str) -> dict:
    """The :data:`EXACT` counts a run prints, as printed."""
    counts = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in EXACT:
            counts[parts[0]] = parts[1]
    return counts


def setup_count(out: str) -> int:
    """How many set-ups a run timed, from the ``set-ups N`` of its
    ``workload`` line."""
    for line in out.splitlines():
        parts = line.split()
        if parts[:1] == ["workload"] and "set-ups" in parts:
            return int(parts[parts.index("set-ups") + 1])
    raise ValueError("no set-up count in the run's output")


def _quartiles(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarise(parent, change, better: str) -> dict:
    """One metric's paired runs: each side's (median, q1, q3), the pairs
    the change won, and the gain of the change's median over the parent's
    against the parent's quartile spread."""
    higher = better == "higher"
    p, c = _quartiles(parent), _quartiles(change)
    return {
        "parent": p,
        "change": c,
        "wins": sum(b > a if higher else b < a for a, b in zip(parent, change)),
        "gain": c[0] - p[0] if higher else p[0] - c[0],
        "spread": p[2] - p[1],
    }


def compare(parent: str, change: str, names, pairs: int, seconds: float) -> dict:
    """Run the alternating pairs and print the summary; returns, per
    workload, every run's report and exact counts by side."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {name: {"parent": [], "change": []} for name in names}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as work:
        roots = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        _copy_tree(parent, roots["parent"])
        _copy_tree(change, roots["change"])
        for i in range(pairs):
            seed = i + 1
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in names:
                for side in sides:
                    out = _run(roots[side], name, seed, seconds, 0)
                    runs[name][side].append({"report": _report(out), "exact": exact_counts(out),
                                             "setups": setup_count(out)})
                print(f"pair {i + 1}/{pairs} {name} done", file=sys.stderr)
    for name in names:
        sides = runs[name]
        print(f"{name}: {pairs} pairs at --seconds {seconds:g}, seeds 1..{pairs}")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
              "wins   gain / parent spread")
        for metric, direction in better.items():
            values = [[r["report"]["metrics"][metric]["value"] for r in sides[side]]
                      for side in ("parent", "change")]
            row = summarise(*values, direction)
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change")]
            print(f"  {metric:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{row['wins']:>2}/{pairs:<3} {row['gain']:+.4g} / {row['spread']:.4g}")
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*_quartiles([r["setups"] for r in sides[side]]))
                 for side in ("parent", "change")]
        print(f"  {'set-ups':<12} {cells[0]:<34} {cells[1]}")
        # both sides list their runs by pair, so by seed
        exact = {side: [json.dumps(r["exact"], sort_keys=True) for r in sides[side]]
                 for side in ("parent", "change")}
        print(f"  exact counts agree: {'yes' if exact['parent'] == exact['change'] else 'NO'} "
              "(seed by seed, parent against change)")
        for side, values in exact.items():
            values = sorted(set(values))
            print(f"  exact counts within {side}: {len(values)} distinct "
                  f"({' | '.join(values)})")
        failed = sorted({r["report"]["failed"] for r in sides["parent"] + sides["change"]})
        print(f"  failed agree: {'yes' if len(failed) == 1 else 'NO'} (values {failed})")
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("-o", "--out", type=Path, default=ROOT,
                        help="directory the files are written to")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = _git("status", "--porcelain", "--untracked-files=no")
    dirty = None if status is None else bool(status)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        path = args.out / f"BENCH_{name}.json"
        path.write_text(json.dumps(bench(name, args.seeds, args.seconds, args.trace, dirty),
                                   indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.py compare",
        description="Alternating benchmark pairs of two trees, summarised per workload.")
    parser.add_argument("parent", help="directory, or git revision of this checkout")
    parser.add_argument("change", help="directory, or git revision of this checkout")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("-o", "--out", type=Path,
                        help="file every run's report is written to, as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = compare(args.parent, args.change, names, args.pairs, args.seconds)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
