"""Span recorder that wraps the public functions of tm2tf from outside.

A span is recorded around every call of a wrapped name: its layer (the
tm2tf module that defines the function), its name, start and end in
perf_counter nanoseconds, and the span that was open when it started.
Counts are taken at the same boundaries by per-target hooks that look at
the call's arguments and result. Nothing under src/ is edited: functions
are replaced under every name that tm2tf modules look them up by, and
methods on their class, and `uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Keeps spans and counts in memory; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, int]] = []  # id, parent, target, start, end
        self.targets: list[tuple[str, str]] = []  # (layer, name) per target index
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def wrap(self, module: str, qualname: str, layer: str, count=None) -> None:
        """Wrap `module.qualname`.

        `count(tracer, args, kwargs, result, seconds)` runs after each call
        that returns and adds to `tracer.counts`.
        """
        mod = importlib.import_module(module)
        owner, attr = mod, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
        original = getattr(owner, attr)
        index = len(self.targets)
        self.targets.append((layer, qualname))
        wrapper = self._make_wrapper(original, index, count)
        if owner is mod:
            # Every tm2tf module that imported the function by name holds its
            # own reference; replace each one that is the same object.
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] != "tm2tf" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)
        else:
            self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _make_wrapper(self, fn, index: int, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id so children can point at it
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, index, start, end)
            if count is not None:
                count(self, args, kwargs, result, (end - start) * 1e-9)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target 'layer.name': calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; outermost calls of a layer are counted in 'outer_calls'.
        """
        child_ns = [0] * len(self.spans)
        for span_id, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, parent, index, start, end in self.spans:
            layer, name = self.targets[index]
            row = out.setdefault(
                f"{layer}.{name}",
                {"calls": 0, "outer_calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            if parent < 0 or self.targets[self.spans[parent][2]][0] != layer:
                row["outer_calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[span_id]) * 1e-9
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: id, parent (-1 for none), layer, name, ns times."""
        with open(path, "w") as f:
            for span_id, parent, index, start, end in self.spans:
                layer, name = self.targets[index]
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
