"""In-memory spans around functions and methods, installed from outside.

A ``Tracer`` replaces an entry point with a wrapper that records one span
per call and keeps only running totals, so the memory it needs does not grow
with the number of calls.  At the end the spans are reduced to, per entry
point:

- ``calls``: the number of spans;
- ``self_s``: the sum of span durations minus the part each span's child
  spans cover (a child is a traced call made while the span is open);
- ``distinct``: the number of distinct inputs, when a key function is given;
- extra counters set by an ``observe`` hook that sees each call's arguments
  and result.

The tracer's own bookkeeping (key hashing, observe hooks) runs outside the
span's clock readings and is charged to no span, so it shows up only in the
difference between a traced and an untraced run of the same work.

Stdlib only; the program being traced is never edited.
"""

from __future__ import annotations

import functools
import sys
import time

_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


class EntryStats:
    """Running totals for one traced entry point."""

    __slots__ = ("calls", "self_s", "keys", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set()
        self.extra = {}

    def to_json(self, keyed: bool) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s}
        if keyed:
            out["distinct"] = len(self.keys)
        out.update(self.extra)
        return out


class Tracer:
    """Wraps entry points and reduces their spans to per-entry totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._keyed = set()
        # One cell per open span, holding the wall time its children covered.
        # The bottom cell collects the top-level spans and is never read.
        self._open = [[0.0]]

    def wrap(self, label: str, fn, key=None, observe=None):
        """Return a traced stand-in for ``fn`` that records spans as ``label``.

        ``key(*args, **kwargs)`` gives a hashable digest of the input, used to
        count distinct inputs; ``observe(extra, args, result)`` updates the
        entry's extra counters after a call that returned.
        """
        if label in self.stats:
            raise ValueError(f"entry point {label} is traced twice")
        stats = self.stats[label] = EntryStats()
        if key is not None:
            self._keyed.add(label)
        clock = self.clock
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            if key is not None:
                stats.keys.add(hash(key(*args, **kwargs)))
            covered = [0.0]
            open_spans.append(covered)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                open_spans.pop()
                stats.calls += 1
                stats.self_s += end - start - covered[0]
                if returned and observe is not None:
                    observe(stats.extra, args, result)
                open_spans[-1][0] += clock() - entered
            return result

        # functools.wraps copies __dict__ but not the methods of an
        # lru_cache object, which callers and tests use to reset caches.
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def patch(self, owner, attr: str, label: str, package: str, key=None, observe=None):
        """Trace ``owner.attr`` wherever it is bound.

        For a class, every name in the class body bound to the same function
        is rebound (``__rmul__ = __mul__`` is traced under one label).  For a
        module, the function is also rebound in every module of ``package``
        that imported it by name, so calls through either name are traced.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if original is None:
                raise AttributeError(f"{owner.__qualname__} defines no {attr}")
            traced = self.wrap(label, original, key, observe)
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, traced)
            return traced
        original = getattr(owner, attr)
        traced = self.wrap(label, original, key, observe)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, traced)
        return traced

    def summary(self) -> dict:
        return {
            label: stats.to_json(label in self._keyed)
            for label, stats in self.stats.items()
        }
