"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent index, counts). `install` replaces a
module attribute with a timed wrapper, so every call made through that name
becomes a span; `uninstall` puts the originals back. Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            label = name(args) if callable(name) else name
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, out)
            return out

        return timed

    def install(self, module, attr: str, name, counts=None) -> None:
        """Wrap module.attr in spans named `name`, or `name(args)` if callable.

        `counts(args, result)`, when given, returns the span's counts dict.
        """
        original = getattr(module, attr)
        setattr(module, attr, self._wrap(name, original, counts))
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of every span from index `first` on."""
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for _, start, end, parent, _ in spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        return [s[2] - s[1] - c for s, c in zip(spans[first:], child)]

    def totals(self, first: int = 0) -> dict[str, dict]:
        """Per span name: calls, summed self time and summed counts."""
        out: dict[str, dict] = {}
        for record, self_s in zip(self.spans[first:], self.self_times(first)):
            agg = out.setdefault(record[0], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            for key, value in (record[4] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)
