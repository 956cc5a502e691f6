"""Spans around the library's public entry points, recorded from outside.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` (a module-level name or
a class method) by a wrapper that opens a span called `name` for each call;
`restore()` puts every original back.  Spans nest through a stack, so each
span knows its parent: its self time is its duration minus the durations of
its child spans, and a span whose name is already open in an ancestor adds
nothing to the name's total (the three field evaluators call one another).

Spans are aggregated as they close, per (tag, name), where `tag` is whatever
the caller set on the tracer (the benchmark tags each problem it runs).
Spans are timed with `speed.work_clock`, which leaves out the speedometer's
ticks.
"""

from __future__ import annotations

import statistics

from speed import work_clock


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    def __init__(self):
        self.tag = ""
        self.stats: dict[tuple[str, str], Stat] = {}
        self.observed: dict[str, list[float]] = {}
        self._stack: list[list[float]] = []   # child seconds of each open span
        self._depth: dict[str, int] = {}      # open spans per name
        self._patched: list[tuple[object, str, object]] = []

    def observe(self, name, value):
        """Record a value (not a time) seen at a layer boundary."""
        self.observed.setdefault(name, []).append(float(value))

    def wrap(self, owner, attr, name, after=None):
        """Trace calls of `owner.attr`; `after(args, result)` runs on return.

        A missing attribute is skipped, so the benchmark keeps running on a
        library from which a traced entry point has been removed.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer, stack, depth = self, self._stack, self._depth

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            t0 = work_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = work_clock() - t0
                stack.pop()
                depth[name] = level
                if stack:
                    stack[-1][0] += duration
                key = (tracer.tag, name)
                st = tracer.stats.get(key) or tracer.stats.setdefault(key, Stat())
                st.calls += 1
                st.self_time += duration - frame[0]
                st.durations.append(duration)
                if level == 0:
                    st.total += duration
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- aggregates ------------------------------------------------------------

    def _merged(self, name, tag=None):
        out = Stat()
        for (t, n), st in self.stats.items():
            if n == name and (tag is None or t == tag):
                out.calls += st.calls
                out.total += st.total
                out.self_time += st.self_time
                out.durations.extend(st.durations)
        return out

    def calls(self, name, tag=None):
        return self._merged(name, tag).calls

    def seconds(self, name, tag=None):
        return self._merged(name, tag).total

    def self_seconds(self, name, tag=None):
        return self._merged(name, tag).self_time

    def median_seconds(self, name, tag=None):
        d = self._merged(name, tag).durations
        return statistics.median(d) if d else 0.0

    def first_seconds(self, name, tag=None):
        d = self._merged(name, tag).durations
        return d[0] if d else 0.0
