"""In-memory span recorder and the layer patcher used by the traced run.

A span is (name, start, end, parent).  The recorder keeps every span in a
list while the traced run lasts; self time is a span's duration minus the
durations of its direct children.  ``traced_layers`` wraps the public layer
functions of ``roast`` in every namespace that refers to them (module
globals, dict-valued module globals such as the CLI runner table, and the
class that owns a method) and puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans over ``time.perf_counter``; single-threaded use."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = Span(name=name, start=time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording one span per call made inside an open
        span; ``hook(args, kwargs, result)`` may return counters to attach.
        Calls outside any span, such as the harness's own output checks,
        run unrecorded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if hook is not None:
                record.attrs.update(hook(args, kwargs, result))
            return result

        return traced

    def aggregate(self) -> dict:
        """Per name: calls, inclusive seconds, self seconds, counter sums
        and counter maxima."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict = {}
        for s, children in zip(self.spans, child_time):
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "sum": {}, "max": {}})
            agg["calls"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += s.duration - children
            for key, value in s.attrs.items():
                agg["sum"][key] = agg["sum"].get(key, 0) + value
                agg["max"][key] = max(agg["max"].get(key, value), value)
        return out

    def to_list(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


@dataclass(frozen=True)
class Layer:
    """One wrapped public function: span name, ``module:qualname`` target
    (``Class.method`` for methods), optional counter hook."""

    name: str
    target: str
    hook: object = None


def _roast_namespaces() -> list[dict]:
    """Every mutable dict in ``roast`` that may hold a function reference."""
    spaces = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "roast" or mod_name.startswith("roast.")):
            continue
        globs = vars(mod)
        spaces.append(globs)
        spaces.extend(v for k, v in globs.items()
                      if isinstance(v, dict) and not k.startswith("__"))
    return spaces


@contextlib.contextmanager
def traced_layers(recorder: SpanRecorder, layers):
    """Wrap each layer everywhere ``roast`` refers to it; restore on exit."""
    undo = []
    try:
        for layer in layers:
            mod_name, qualname = layer.target.split(":")
            owner = importlib.import_module(mod_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = recorder.wrap(layer.name, original, layer.hook)
            if path:  # a method: the owning class is the only reference
                setattr(owner, attr, wrapped)
                undo.append(functools.partial(setattr, owner, attr, original))
                continue
            for space in _roast_namespaces():
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapped
                        undo.append(functools.partial(space.__setitem__, key, original))
        yield recorder
    finally:
        for restore in reversed(undo):
            restore()
