"""In-memory span tracer that wraps convec's public functions from outside.

The library is never edited.  Each wrapped name is replaced in every loaded
``convec`` module that binds it, because modules copy names such as
``solve_right`` or ``generator_band`` into their own namespace at import and
look them up there; patching the defining module alone would miss those
calls.  ``Tracer.restore`` puts every original back.

A span is (name, start, end, parent, trace_id).  Spans of one stream or one
certificate share the trace_id the workload sets before it starts the
operation.  Self time is a span's duration minus the time its direct
children cover; spans nest strictly because the benchmark is single
threaded.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace_id]
        self.counts: Counter = Counter()
        self.trace_id: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.trace_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, module, attr, replacement, only=None):
        """Point every convec module that binds module.attr at replacement;
        only restricts this to the named modules."""
        original = getattr(module, attr)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("convec") and mod is not None \
                    and (only is None or modname in only) \
                    and mod.__dict__.get(attr) is original:
                self._set(mod, attr, replacement)

    def wrap_function(self, name, module, attr, on_result=None, only=None):
        """Wrap module.attr wherever a convec module binds that same object."""
        self._rebind(module, attr, self._span(name, getattr(module, attr), on_result), only)

    def wrap_method(self, name, cls, attr, on_result=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._span(name, raw.__func__, on_result)))
        else:
            self._set(cls, attr, self._span(name, raw, on_result))

    def wrap_iterator(self, name, module, attr):
        """Wrap a function returning an iterator: the call and every next()
        become spans, so lazy work is charged where it actually runs."""
        original = getattr(module, attr)
        span = self._span

        def call(*args, **kwargs):
            it = span(name, original)(*args, **kwargs)
            # the wrapped __next__ ends the iteration by raising StopIteration
            return iter(span(name, it.__next__), object())

        self._rebind(module, attr, call)

    def count_method(self, counter, cls, attr):
        """Count calls of cls.attr without opening a span."""
        fn = cls.__dict__[attr]
        counts = self.counts

        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        self._set(cls, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child_time[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def trace_ids_with(self, name: str) -> set:
        return {tid for n, _, _, _, tid in self.spans if n == name}

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "trace_id": t}
                for n, s, e, p, t in self.spans]
