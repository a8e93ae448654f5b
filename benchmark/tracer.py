"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program by replacing bound
methods with wrappers on individual instances (``setattr(obj, name, ...)``),
so the package itself is never patched and an untraced object is never
slowed down.  Each span keeps its name, start, end and parent span; they
are held in flat arrays while the run lasts and written out when it ends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

ROOT_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT_PARENT]
        self._wrapped: List[Tuple[object, str]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``obj.attr``."""
        fn = getattr(obj, attr)
        nid = self._intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        for obj, attr in reversed(self._wrapped):
            delattr(obj, attr)
        self._wrapped.clear()

    # analysis ------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p != ROOT_PARENT:
                child[p] += end[i] - start[i]
        count = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        name = self.name
        for i in range(n):
            nid = name[i]
            d = end[i] - start[i]
            count[nid] += 1
            incl[nid] += d
            own[nid] += d - child[i]
        return {
            self.names[k]: (count[k], incl[k], own[k]) for k in range(len(self.names))
        }

    def gaps(self, marker: str, parent_name: str) -> List[float]:
        """Time between consecutive ``marker`` spans that are direct
        children of the same ``parent_name`` span."""
        marker_id = self._name_ids.get(marker)
        parent_id = self._name_ids.get(parent_name)
        last: Dict[int, float] = {}
        out: List[float] = []
        for i in range(len(self.start)):
            if self.name[i] != marker_id:
                continue
            p = self.parent[i]
            if p == ROOT_PARENT or self.name[p] != parent_id:
                continue
            if p in last:
                out.append(self.start[i] - last[p])
            last[p] = self.start[i]
        return out

    def write(self, path: Path) -> None:
        """Write the spans as ``<path>.bin`` (four native-endian column
        arrays in the order listed by the header) and ``<path>.json``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name), ("parent", self.parent),
                   ("start", self.start), ("end", self.end)]
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "count": len(self.start),
            "names": self.names,
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "clock": "time.perf_counter seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99) of ``values``."""
    return statistics.quantiles(values, n=100)[q - 1]
