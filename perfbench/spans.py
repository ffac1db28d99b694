"""Span recorder for the benchmark's traced run.

The recorder wraps public functions and methods of the program from the
outside: it replaces a module attribute (and every other ``repro`` module
attribute bound to the same function object, so ``from x import f`` call
sites are covered) or a class attribute with a wrapper, and restores the
original on :meth:`SpanRecorder.uninstall`.  No file of the program is
edited and the program has no tracing option of its own for this.

Two kinds of boundary are recorded:

* a *span* per call: name, start, end, the enclosing span, and the
  transaction id when the call carries one;
* a *count* per call, for boundaries crossed millions of times whose cost is
  better left inside their caller's self time (one span per call there would
  cost more than the call itself).

Spans are kept in flat in-memory arrays and written as JSONL only when the
run ends.  A span's self time is its duration minus the time covered by its
direct child spans; since the simulator is single-threaded, children nest
strictly inside their parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["Boundary", "LayerTotals", "SpanRecorder"]

TxOf = Callable[[tuple], int]


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module:qualname``, its layer name and kind."""

    target: str
    name: str
    count_only: bool = False
    tx_of: TxOf | None = None


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, raw value)."""

    module_name, _, qualname = target.partition(":")
    __import__(module_name)
    owner: Any = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class SpanRecorder:
    """Installs wrappers at layer boundaries and aggregates what they saw."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._tx = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn: Callable, name: str, tx_of: TxOf | None) -> Callable:
        name_id = self._intern(name)
        clock = self._clock
        stack = self._stack
        name_ids, starts, ends = self._name_id, self._start, self._end
        parents, txs = self._parent, self._tx

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            txs.append(tx_of(args) if tx_of is not None else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, boundaries: Iterable[Boundary]) -> None:
        for boundary in boundaries:
            owner, attr, raw = _resolve(boundary.target)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if boundary.count_only:
                wrapped = self._count_wrapper(fn, boundary.name)
            else:
                wrapped = self._span_wrapper(fn, boundary.name, boundary.tx_of)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patch(owner, attr, raw, wrapped)
            if not isinstance(owner, type):
                # ``from module import fn`` copies: rebind every alias too.
                for module_name, module in list(sys.modules.items()):
                    if module is owner or not module_name.startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, alias, raw, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def totals(self) -> dict[str, LayerTotals]:
        """Per-name call count, inclusive time and self time."""

        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        n = len(self._start)
        durations = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        out: dict[str, LayerTotals] = {}
        for i in range(n):
            totals = out.setdefault(self.names[self._name_id[i]], LayerTotals())
            totals.calls += 1
            totals.total_s += durations[i]
            totals.self_s += durations[i] - child[i]
        for name, calls in self.counts.items():
            out.setdefault(name, LayerTotals()).calls += calls
        return out

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, tx."""

        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self._start)):
                doc = {
                    "id": i,
                    "name": self.names[self._name_id[i]],
                    "start": self._start[i],
                    "end": self._end[i],
                    "parent": self._parent[i],
                }
                if self._tx[i] >= 0:
                    doc["tx"] = self._tx[i]
                handle.write(json.dumps(doc) + "\n")
            for name, calls in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "calls": calls}) + "\n")
