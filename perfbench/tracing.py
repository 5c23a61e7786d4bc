"""Span tracing for the benchmark's traced run.

The tracer rebinds module and class attributes at the names callers look
up (``dbtagger.training.backward``, not ``dbtagger.numerics.backward``,
because training imports it by name), records one span per call and puts
every original back on exit.  A target that no longer exists is reported
as missing instead of failing the run, so a later kernel rewrite leaves
the traced run working.

Spans are (name, start, end, parent, request), timed in process CPU
seconds like the end-to-end metrics, and stay in memory until
``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.records: dict[str, list] = defaultdict(list)
        self.request = None
        self.requests = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.process_time(), None, parent, self.request))
        self._stack.append(idx)
        return idx

    def begin_request(self) -> int:
        """Open the root span of the next request; close it with ``close``."""
        self.request = self.requests
        self.requests += 1
        return self.open("request")

    def close(self, idx: int) -> None:
        end = time.process_time()
        self._stack.pop()
        name, start, _, parent, request = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, request)

    def _span_wrapper(self, name, fn, on_call, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, target: str, name: str, *, count_only=False, on_call=None, on_result=None):
        """Wrap ``module:attr`` or ``module:Class.attr`` under ``name``.

        ``on_call(tracer, args, kwargs)`` and ``on_result(tracer, result)``
        run outside the span.  A count-only wrapper records no span and
        just adds one to ``counters[name]`` per call.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(name)
            return
        if count_only:
            wrapper = self._count_wrapper(name, original, on_result)
        else:
            wrapper = self._span_wrapper(name, original, on_call, on_result)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] is not None and span[2] is not None:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            name, start, end = span[0], span[1], span[2]
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += (end - start) - child_time[idx]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for idx, span in enumerate(self.spans):
                name, start, end, parent, request = span
                if end is None:
                    continue
                record = {"id": idx, "name": name, "start": start, "end": end,
                          "parent": parent, "request": request}
                out.write(json.dumps(record) + "\n")
