"""Span bookkeeping for the traced run: counts, inclusive and self time.

Spans are aggregated as they close instead of being stored, because a
single verb opens hundreds of thousands of them.  A span's self time is its
duration minus the durations of its direct child spans; a layer's self time
is the sum over its spans, and its inclusive time the sum over its
outermost spans, those with no open span of the same layer around them.
A call re-entering a name that is already open (a recursive helper) is
folded into the outer span and not counted again.
"""

from __future__ import annotations


class SpanAggregator:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}  # per layer
        self.layer_s: dict[str, float] = {}  # per layer, outermost spans only
        self._stack: list[list] = []  # [name, layer, start, child_time]
        self._open: dict[str, int] = {}
        self._layer_open: dict[str, int] = {}

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def enter(self, name: str, layer: str, now: float) -> None:
        self._stack.append([name, layer, now, 0.0])
        self._open[name] = self._open.get(name, 0) + 1
        self._layer_open[layer] = self._layer_open.get(layer, 0) + 1
        self.calls[name] = self.calls.get(name, 0) + 1

    def exit(self, now: float) -> None:
        name, layer, start, child = self._stack.pop()
        self._open[name] -= 1
        self._layer_open[layer] -= 1
        duration = now - start
        if not self._layer_open[layer]:
            self.layer_s[layer] = self.layer_s.get(layer, 0.0) + duration
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "self_s": dict(self.self_s),
            "layer_s": dict(self.layer_s),
        }
