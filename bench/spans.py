"""Spans and counters recorded by the benchmark's own wrappers.

A wrapper replaces a function at the name where callers look it up (a
module attribute or a class attribute) and records one span per call:
name, start, end and the span that was open when it was called.  Spans
stay in memory and are written out once, when the run ends.  A layer's
self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from pathlib import Path


def median_duration(spans: list[dict], name: str) -> float:
    """Median duration of the ended spans of that name (nan if there are none)."""
    values = [s["end"] - s["start"] for s in spans if s["name"] == name and "end" in s]
    return statistics.median(values) if values else float("nan")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        """Add n to a counter, and to the same counter of every enclosing span."""
        self.counts[name] += n
        for span in {self.spans[i]["name"] for i in self._open}:
            self.counts[f"{span}/{name}"] += n

    def call(self, name: str, fn, args, kwargs, size=None):
        span = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if size is not None:
            span["size"] = size(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Record a span for every call of owner.attr, made through that name."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size)

        self._patch(owner, attr, fn, traced)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, counted)

    def wrap_model_evals(self, owner, attr: str, name: str) -> None:
        """Wrap a fitter f(model, ...) so each evaluation of the model is counted."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def fitter(model, *args, **kwargs):
            def counted_model(*a, **k):
                self.count(name)
                return model(*a, **k)

            return fn(counted_model, *args, **kwargs)

        self._patch(owner, attr, fn, fitter)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and "end" in s]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def median(self, name: str) -> float:
        return median_duration(self.spans, name)

    def _under(self, span: dict, root: str) -> bool:
        while span is not None:
            if span["name"] == root:
                return True
            span = None if span["parent"] is None else self.spans[span["parent"]]
        return False

    def self_times(self, root: str | None = None) -> dict[str, float]:
        """Total self time per span name: duration minus the union of its children.

        With ``root``, only spans inside a span of that name count.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        totals: dict[str, float] = {}
        for s in self.spans:
            if root is not None and not self._under(s, root):
                continue
            covered = 0.0
            edge = s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
        return totals

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "self_time_s": self.self_times()}

    def dump(self, path: Path, extra: dict | None = None) -> None:
        doc = self.to_dict()
        doc.update(extra or {})
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
