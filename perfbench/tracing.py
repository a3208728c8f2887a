"""Spans and call counters recorded from outside thermint.

The benchmark never edits the package.  It records a span around each
call it makes into a layer's public function, and it counts the calls
the package makes back into the system and discretization objects by
wrapping their callable fields in copies made with `dataclasses.replace`.

A span is ``(id, name, layer, parent, start, end, self)``; ``self`` is
the span's duration minus the part its children cover.  Wrapped callables
run millions of times, so they are not stored one by one: each is
aggregated per (name, layer, name of the enclosing span) into a call
count, a total duration and a self time.  Everything is kept in memory
and written out once the run ends.
"""

import dataclasses
import sys
import time
from contextlib import contextmanager

#: callable fields of LagrangianThermoSystem that belong to the continuous
#: layer rather than to the system itself
CONTINUOUS_FIELDS = ("accel",)


class Tracer:
    """Span recorder.  Not thread-safe; the benchmark runs in one thread."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.calls = {}
        # frames are [enclosing span id, its name, time covered by children]
        self._stack = [[-1, None, 0.0]]
        self._wrapped = {}

    @contextmanager
    def span(self, name, layer, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "layer": layer, "parent": self._stack[-1][0]}
        rec.update(attrs)
        self.spans.append(rec)
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - rec["start"]
            rec["end"] = end
            rec["self"] = dur - frame[2]
            self._stack[-1][2] += dur

    def wrap(self, fn, name, layer):
        """A transparent wrapper of ``fn`` that counts and times its calls."""
        if fn is None:
            return None
        key = (id(fn), name)
        hit = self._wrapped.get(key)
        if hit is not None:
            return hit
        stack, calls, clock = self._stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            frame = [stack[-1][0], stack[-1][1], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][2] += dt
                k = (name, layer, frame[1])
                rec = calls.get(k)
                if rec is None:
                    calls[k] = [1, dt, dt - frame[2]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[2]

        # keep the original alive: the cache is keyed by its id
        self._wrapped[key] = traced
        traced.__wrapped__ = fn
        return traced

    def _wrap_fields(self, obj, prefix, layer_of):
        changes = {}
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if callable(val) and not isinstance(val, type):
                changes[f.name] = self.wrap(val, f"{prefix}.{f.name}", layer_of(f.name))
        return dataclasses.replace(obj, **changes)

    def wrap_entry(self, entry):
        """Copy of a SystemCatalogEntry whose callables, and whose
        Lagrangian's callables, are counted."""
        wrapped = self._wrap_fields(entry, "H", lambda f: "systems")
        lag = self._wrap_fields(
            entry.lagrangian, "L",
            lambda f: "continuous" if f in CONTINUOUS_FIELDS else "systems")
        return dataclasses.replace(wrapped, lagrangian=lag)

    def wrap_discrete(self, d):
        # wrappers are cached by identity, so ffr_minus stays ffr_plus
        return self._wrap_fields(d, "D", lambda f: "discrete")

    def dump(self):
        calls = [{"name": n, "layer": lay, "within": p, "count": c, "total": t, "self": s}
                 for (n, lay, p), (c, t, s) in self.calls.items()]
        return {"spans": self.spans, "calls": calls}


class NullTracer:
    """Tracing off: spans and wrappers cost one call and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name, layer, **attrs):
        yield attrs

    def wrap_entry(self, entry):
        return entry

    def wrap_discrete(self, d):
        return d


class IntegrateTimer:
    """Times every call of ``thermint.solve.integrate`` while active.

    `run_experiment` calls `integrate` internally, so with tracing off the
    benchmark swaps a timing wrapper into each thermint module that holds
    the function, and restores it on exit.  The cost is two clock reads
    per call.
    """

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0
        self._patched = []

    def __enter__(self):
        import thermint.solve

        orig = thermint.solve.integrate

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            path = orig(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.steps += path.n_steps
            return path

        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "thermint" or name.startswith("thermint.")) \
                    and getattr(mod, "integrate", None) is orig:
                mod.integrate = timed
                self._patched.append(mod)
        self._orig = orig
        return self

    def __exit__(self, *exc):
        for mod in self._patched:
            mod.integrate = self._orig
        self._patched = []
        return False
