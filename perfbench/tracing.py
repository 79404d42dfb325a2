"""Span tracing of the program's layers from outside.

``Tracer.install`` replaces each layer's public functions with a timing
wrapper, in every module namespace that binds them
(``rational_kcbs.cli.kcbs_value`` as well as
``rational_kcbs.contextuality.kcbs_value``), so calls between layers are
seen.  The public functions are the callables other than classes that the
package exports from its ``__init__`` plus the public ones of ``cli``, plain
functions and wrapped ones (``functools.lru_cache``) alike; a function
with ``cache_info`` also reports whether a call was a cache miss.  Private helpers, the
coercion helper ``linalg3.as_rational`` and the methods of the package's
classes are not wrapped (wrapping them would more than double the cost of
exact vector arithmetic); their time counts to the wrapped function that
called them.

Each call becomes a span: name, start, end, parent span and the operation it
belongs to.  Per-name call counts, inclusive time and self time (duration
minus the time covered by child spans) are accumulated for every span; the
raw spans are kept in memory up to ``MAX_SPANS`` and written out by
``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "rational_kcbs"
LAYERS = ("rationals", "linalg3", "contextuality", "hv_models", "search", "cli")
MAX_SPANS = 100_000  # raw spans kept for the trace file; counts and times cover all


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # Outcome counts read off arguments and results at the boundary.
        self.pentagons_closed = 0
        self.search_violations = 0
        self.cycle_lengths: list[int] = []
        self.assignments_enumerated = 0  # 2^n per classical_min_cycle(n) not served from a cache
        self._stack: list[list[int]] = []  # [span id, time covered by children]
        self._next_id = 0
        self._op = -1

    # -- installation ----------------------------------------------------

    def public_functions(self) -> list:
        """The package's public callables other than classes: plain
        functions and wrapped ones such as ``functools.lru_cache``'s."""
        cli = self._modules["cli"]
        exported = vars(sys.modules[PACKAGE]).values()
        own = (obj for name, obj in vars(cli).items() if not name.startswith("_"))
        return [obj for obj in (*exported, *own)
                if callable(obj) and not isinstance(obj, type)
                and str(getattr(obj, "__module__", "")).startswith(PACKAGE + ".")]

    def install(self) -> None:
        targets = {id(obj) for obj in self.public_functions()}
        for module in self._modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in targets:
                    self._originals.append((module, name, obj))
                    setattr(module, name, self._wrap(module.__name__, obj))

    def uninstall(self) -> None:
        for module, name, obj in self._originals:
            setattr(module, name, obj)
        self._originals.clear()

    def _wrap(self, binding: str, fn):
        key = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        outcome = self._outcome_hook(binding, key)
        info = getattr(fn, "cache_info", None)  # functools caches count their misses
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            misses = info().misses if info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(key, span_id, parent, start, end, frame[1])
            if outcome is not None:
                computed = info is None or info().misses > misses
                outcome(args, result, computed)
            return result

        return wrapper

    def _outcome_hook(self, binding: str, key: str):
        if key == "search.build_pentagon":
            def hook(args, result, computed):
                self.pentagons_closed += result is not None
            return hook
        if key == "contextuality.kcbs_value" and binding == f"{PACKAGE}.search":
            def hook(args, result, computed):
                self.search_violations += result < -3  # search builds pentagons only
            return hook
        if key == "hv_models.classical_min_cycle":
            def hook(args, result, computed):
                self.cycle_lengths.append(args[0])
                self.assignments_enumerated += 2 ** args[0] if computed else 0
            return hook
        return None

    # -- spans -------------------------------------------------------------

    def _close(self, key: str, span_id: int, parent: int, start: int, end: int, child_ns: int) -> None:
        duration = end - start
        self.calls[key] += 1
        self.total_ns[key] += duration
        self.self_ns[key] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self._op, key, start, end))
        else:
            self.dropped += 1

    def begin_op(self, op_no: int) -> None:
        """Mark the start of one operation; its spans share this id."""
        self._op = op_no

    def dump(self, path) -> None:
        doc = {
            "fields": ["span", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "per_name": {
                key: {"calls": self.calls[key], "total_s": self.total_ns[key] / 1e9,
                      "self_s": self.self_ns[key] / 1e9}
                for key in sorted(self.calls)
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
