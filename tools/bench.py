#!/usr/bin/env python3
"""Speed numbers per workload: writes ``BENCH_<workload>.json``.

Run from the repository root::

    python3 tools/bench.py                          # every workload, untraced
    python3 tools/bench.py --workload restart-3d --trace 1 --seeds 1 2
    python3 tools/bench.py --seconds 0 -o /tmp/bench

Each seed of each workload runs ``benchmark/run.py --workload W --seed S
--seconds T --trace 0|1`` in a fresh interpreter, one run at a time, and
the last line that run prints, its JSON report, is kept as it is.  The
file of a workload holds those reports, the seeds, ``--seconds``,
``--trace``, the Python version and the git revision of the checkout
(with ``dirty`` set when tracked files differ from it), so a speed claim
is a diff of two files written by the same command.  The benchmark is
called as it stands; nothing under ``benchmark/`` is read but its
workload names.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmark" / "run.py"
sys.path.insert(0, str(ROOT / "benchmark"))

from run import WORKLOADS  # noqa: E402


def _git(*args: str):
    """The output of a git command in the checkout, or None without git."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``benchmark/run.py`` run in a fresh interpreter; its report."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench(workload: str, seeds, seconds: float, trace: int) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seeds": list(seeds),
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "revision": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "reports": [run_once(workload, seed, seconds, trace) for seed in seeds],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("-o", "--out", type=Path, default=ROOT,
                        help="directory the files are written to")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        path = args.out / f"BENCH_{name}.json"
        path.write_text(json.dumps(bench(name, args.seeds, args.seconds, args.trace),
                                   indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
