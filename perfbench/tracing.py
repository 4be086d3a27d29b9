"""Span tracing of curvjet's public functions, installed from outside.

``Tracer.install()`` wraps every public function of the layer modules (the
plain functions named in each module's ``__all__``) and rebinds the wrapper
under every name a curvjet module imported it as, so ``suites.basis_Ck``,
``jets.pair_derivation`` and ``young.basis_Ck`` all record spans named
``young.basis_Ck``.  Spans stay in memory as (name, start, end, parent) and
are written out once, after the traced work.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager

LAYERS = (
    "spaces",
    "young",
    "curvature",
    "jets",
    "polymetric",
    "identities",
    "suites",
    "report",
    "cli",
)

# methods carry no module binding to rebind, so they are wrapped on the class
METHODS = (("report", "Report", "render_text"),)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code; yields a dict that receives 'seconds'."""
        index = self._open(name)
        out = {}
        start = time.perf_counter()
        try:
            yield out
        finally:
            end = time.perf_counter()
            self._close(index, start, end)
            out["seconds"] = end - start

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, start, time.perf_counter())

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module wherever bound."""
        import importlib

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"curvjet.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{attr}"))
        for modname, module in list(sys.modules.items()):
            if modname != "curvjet" and not modname.startswith("curvjet."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, entry[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"curvjet.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed self time and summed duration."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
    return out


def per_call_overhead(reps: int = 20000, rounds: int = 5) -> float:
    """Seconds a traced call adds over a bare one, measured on a no-op.

    The best of several rounds on each side keeps scheduler noise out; the
    difference is what every recorded span costs the traced run.
    """
    def noop():
        return None

    traced = Tracer("calibration").wrap(noop, "noop")

    def best(fn) -> float:
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    # the wrapped side keeps its spans in memory, as a real traced run does
    return max(best(traced) - best(noop), 0.0) / reps
