"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent).  Spans come only from wrappers the
benchmark installs around calls into lrcone; the untraced run installs none.
Times are kept in flat arrays so that a pass with ~10^5 micro-spans (count
lookups, tail certificates) stays a few MB, and are summarised once the pass
has finished.
"""

from __future__ import annotations

import json
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter


def median(values) -> float:
    """Median of a non-empty sequence; 0.0 for an empty one (layer not run)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    """95th percentile by the inclusive method; the value itself for one sample.

    With 200 samples this is the highest percentile that has ten samples
    beyond it.  Returns 0.0 for an empty sequence.
    """
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


@dataclass(frozen=True)
class SpanTotals:
    calls: int
    total_s: float
    self_s: float  # total minus the time covered by direct child spans


def summarize(names: list[str], name_ids, starts, ends, parents) -> dict[str, SpanTotals]:
    """Per-name call count, total time and self time of a span table.

    parents[i] is the index of span i's enclosing span, or -1.  A span's self
    time is its duration minus the durations of its direct children.
    """
    child = [0.0] * len(name_ids)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i, nid in enumerate(name_ids):
        dur = ends[i] - starts[i]
        calls[nid] += 1
        total[nid] += dur
        own[nid] += dur - child[i]
    return {
        name: SpanTotals(calls[k], total[k], own[k])
        for k, name in enumerate(names)
        if calls[k]
    }


class Tracer:
    """Wraps callables so that each call records a span; counts plain events.

    `patch` replaces a module or instance attribute and remembers the
    original; `restore` puts every original back.  `reset` starts a new span
    table and returns the finished one.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._new_table()

    def _new_table(self) -> None:
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: dict[str, int] = {}

    def reset(self) -> dict:
        table = {
            "name": self.name_ids,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }
        self._new_table()
        return table

    def totals(self) -> dict[str, SpanTotals]:
        return summarize(self.names, self.name_ids, self.starts, self.ends, self.parents)

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [
            e - s for k, s, e in zip(self.name_ids, self.starts, self.ends) if k == nid
        ]

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name_ids)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1])
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                stack.pop()

        return traced

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def counted(self, name: str, fn):
        def counting(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def write_spans(path, names: list[str], tables: list[dict]) -> None:
    """Write every traced pass's span table as one JSON document."""
    doc = {
        "fields": ["name", "start", "end", "parent"],
        "names": names,
        "passes": [{key: list(col) for key, col in table.items()} for table in tables],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def import_split(importtime_log: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Seconds of import time owned by each package, from ``-X importtime``.

    A module belongs to the package its dotted name starts with.  A module of
    no listed package (stdlib, third-party helpers) is charged to the nearest
    enclosing import that belongs to one; otherwise to "other".  Self times
    are used, so nothing is counted twice.
    """
    owned = dict.fromkeys(packages, 0.0)
    owned["other"] = 0.0
    pending: list[tuple[int, list[float]]] = []  # (depth, unowned self times)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        self_us = int(fields[0])
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        unowned: list[float] = []
        while pending and pending[-1][0] > depth:
            unowned.extend(pending.pop()[1])
        unowned.append(self_us * 1e-6)
        package = name.split(".")[0]
        if package in owned and package != "other":
            owned[package] += sum(unowned)
            unowned = []
        pending.append((depth, unowned))
    owned["other"] += sum(sum(u) for _, u in pending)
    return owned
