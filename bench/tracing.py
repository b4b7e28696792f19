"""Spans around the calls one topecom module makes into another.

The benchmark rebinds a public name in the calling module's namespace (for
example ``topecom.cli.chambers``) to a wrapper that records a span: name,
start and end in ns, parent span and op id, plus an optional count taken
from the result. Spans stay in memory and are written out once, after the
run. Self time is a span's duration minus its child spans.

``signs`` gets no spans: its calls take microseconds and run by the million.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name, count taken from the result)
BOUNDARIES = (
    ("cli", "chambers", "realization.chambers", len),
    ("cli", "read_arrangement_file", "realization.parse", None),
    ("cli", "read_topes_file", "topesets.parse", None),
    ("cli", "enumerate_cycles", "cycles.enumerate", len),
    ("cli", "find_symmetric_cycle", "cycles.find", None),
    ("cli", "decompose", "decomposition.decompose", None),
    ("cli", "enumerate_critical", "committees.enumerate_critical", len),
    ("cli", "adjacency_edges", "topesets.adjacency", len),
    ("posets.BasedPoset", "hasse_edges", "posets.hasse", len),
    ("realization", "feasible", "realization.feasible", int),
    ("realization", "build_tope_set", "topesets.build", len),
    ("topesets", "build_tope_set", "topesets.build", len),
    ("decomposition", "CycleDecomposer", "decomposition.decomposer_build", None),
    ("decomposition", "cycle_determinant", "decomposition.determinant", None),
    ("decomposition", "doubled_inverse", "decomposition.doubled_inverse", None),
    ("committees", "enumerate_cycles", "cycles.enumerate", len),
    ("committees", "max_positive", "posets.max_positive", None),
    ("committees", "is_critical", "committees.is_critical", None),
)

class BoundaryMissing(RuntimeError):
    """A public name the trace wraps no longer exists."""


class Tracer:
    """Collects spans while ``on``; ``op`` tags each span with the current op."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.on = False
        self.op: int | str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around each call while the tracer is on."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                n = count(result) if count is not None and result is not None else None
                self.spans[idx] = (name, start, end, parent, self.op, n)

        traced.__wrapped__ = fn
        return traced

    def install(self, topecom) -> None:
        """Rebind every boundary; raises :class:`BoundaryMissing` if one is gone."""
        for path, attr, name, count in BOUNDARIES:
            owner = topecom
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                raise BoundaryMissing(f"topecom.{path}.{attr} no longer exists")
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time spent in other layers below it.

    A child span of the same layer counts as the parent's own work, so
    ``realization.chambers`` keeps the ``realization.feasible`` calls it
    makes but not the ``topesets.build`` one.
    """
    layer = [span[0].split(".", 1)[0] for span in spans]
    out = [end - start for _, start, end, _, _, _ in spans]
    # Children sit after their parent, so a reverse sweep sees them first.
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            dur = spans[i][2] - spans[i][1]
            out[parent] -= dur if layer[i] != layer[parent] else dur - out[i]
    return out


class SpanTable:
    """Per-name totals over the spans whose op id passes a filter.

    ``self_ns`` uses plain self time; the per-rung totals use
    :func:`layer_self_times`.
    """

    def __init__(self, spans, keep, rung_of=None):
        selfs = self_times(spans)
        layer_selfs = layer_self_times(spans)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counted = defaultdict(int)
        self.counted_under = defaultdict(int)  # keyed by (parent name, name)
        self.rung_self_ns = defaultdict(int)
        self.rung_calls = defaultdict(int)
        for span, own, layer_own in zip(spans, selfs, layer_selfs):
            name, _, _, parent, op, n = span
            if not keep(op):
                continue
            self.self_ns[name] += own
            self.calls[name] += 1
            if n is not None:
                self.counted[name] += n
                if parent >= 0:
                    self.counted_under[spans[parent][0], name] += n
            if rung_of is not None:
                self.rung_self_ns[name, rung_of(op)] += layer_own
                self.rung_calls[name, rung_of(op)] += 1

    def layers(self) -> set[str]:
        return {name.split(".", 1)[0] for name in self.calls}
