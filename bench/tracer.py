"""Span recorder for the traced run, wrapped around the program from outside.

`Tracer.install` replaces every public function of the package's layer
modules, plus a few methods, with a wrapper that records one span per call:
name, start, end, parent span and query id.  The same wrapper is bound
wherever a module imported the function by name (`from .rules import
winner_from_ballots` leaves a second binding in the importing module), so
every call site is seen.  Spans are kept in flat arrays and written out by
`Tracer.dump`; self time is a span's duration minus the time its children
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "ballotfile",
    "core",
    "rules",
    "detection",
    "dispatch",
    "detect_scoring",
    "detect_maximin",
    "detect_bucklin",
    "oracle",
)
# Methods that matter per call but are not module-level functions.
METHODS = {
    "core": {"ElectionInstance": ("__init__", "ballots_excluding", "with_ballots_replaced")},
    "detection": {"DetectionQuery": ("__post_init__",)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.query_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def install(self, package) -> None:
        """Wrap the layer modules of `package` (an imported package object)."""
        modules = {short: getattr(package, short) for short in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        bindings = [package, *modules.values(), getattr(package, "cli", None)]
        for mod in filter(None, bindings):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def count_within(self, query_id: int, outer: str, inner: str) -> int:
        """Spans named `inner` that ran inside an `outer` span of the given query."""
        outer_id, inner_id = self.name_id(outer), self.name_id(inner)
        windows = []
        count = 0
        for i in range(len(self.name)):
            if self.query[i] != query_id:
                continue
            if self.name[i] == outer_id:
                windows.append((self.start[i], self.end[i]))
            elif self.name[i] == inner_id:
                count += any(lo <= self.start[i] <= hi for lo, hi in windows)
        return count

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON index plus one binary file of packed arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        binary = path.with_suffix(".spans")
        with open(binary, "wb") as out:
            for arr in (self.name, self.parent, self.query, self.start, self.end):
                arr.tofile(out)
        index = {
            "spans": len(self.name),
            "names": self.names,
            "file": binary.name,
            "layout": [
                ["name", "i"], ["parent", "i"], ["query", "i"], ["start", "d"], ["end", "d"],
            ],
        }
        path.write_text(json.dumps(index, indent=1) + "\n")


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


class TraceSummary:
    """Per-name counts, inclusive and self time, plus parent-name relations."""

    def __init__(self, tracer: Tracer):
        names, name, parent = tracer.names, tracer.name, tracer.parent
        start, end = tracer.start, tracer.end
        n = len(name)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_parent = defaultdict(int)  # (name, parent name) -> count
        self.time_by_parent = defaultdict(float)  # (name, parent name) -> seconds
        for i in range(n):
            nm = names[name[i]]
            dur = end[i] - start[i]
            self.count[nm] += 1
            self.total[nm] += dur
            self.self_time[nm] += dur - child[i]
            p = parent[i]
            key = (nm, names[name[p]] if p >= 0 else None)
            self.by_parent[key] += 1
            self.time_by_parent[key] += dur

    def layer_self_ms(self, layer: str) -> float:
        return 1000.0 * sum(t for nm, t in self.self_time.items() if nm.startswith(layer + "."))

    def calls_under(self, callee: str, caller_prefix: str) -> int:
        return sum(
            c for (nm, parent), c in self.by_parent.items()
            if nm == callee and parent is not None and parent.startswith(caller_prefix)
        )

    def seconds_under(self, callee: str, caller_prefix: str) -> float:
        return sum(
            t for (nm, parent), t in self.time_by_parent.items()
            if nm == callee and parent is not None and parent.startswith(caller_prefix)
        )
