"""In-memory span tracer installed around gcsloc's public functions.

Spans are recorded by replacing module attributes with timing wrappers, so
no code under ``src/`` changes.  A span holds its name, start, end, the
index of its parent span and the job it belongs to, plus the work counts
its call carries (trajectory-steps, records, ...).  Spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Tracer:
    """Collects spans from wrapped functions; ``install`` and ``uninstall``
    swap the wrappers in and out of module namespaces."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, counts]
        self.job = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        """Wrap fn so every call records a span called name.

        counter(args, kwargs) returns the work counts carried by one call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = self.spans[idx]
                span[2] = end
                span[5] = counter(args, kwargs) if counter else None

        return traced

    def install(self, module, names, prefix, counters=None):
        """Replace module.<name> for each name with a traced wrapper whose
        span is called prefix + name."""
        counters = counters or {}
        for attr in names:
            original = getattr(module, attr)
            wrapped = self.wrap(prefix + attr, original, counters.get(attr))
            setattr(module, attr, wrapped)
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, path, extra=None):
        keys = ("name", "start", "end", "parent", "job", "counts")
        payload = dict(extra or {})
        payload["spans"] = [dict(zip(keys, s)) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def spans_named(spans, name, job_prefix=None):
    """Indices of spans called name, optionally limited to jobs whose label
    starts with job_prefix."""
    return [
        i
        for i, s in enumerate(spans)
        if s[0] == name and (job_prefix is None or str(s[4]).startswith(job_prefix))
    ]
