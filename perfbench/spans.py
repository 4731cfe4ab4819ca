"""In-memory span tracer that instruments a package from outside.

The tracer replaces public functions at the module attributes where the
package looks them up, so it needs no hook inside the package.  Each call
of a wrapped function records one span (name, start, end, parent) in flat
arrays that stay in memory until ``summary`` aggregates them.  Calls made
from worker threads with no open span of their own are parented to the
innermost open span of the thread that created the tracer, which is the
thread that started the pool.
"""

from __future__ import annotations

import array
import sys
import threading
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array.array("i")
        self._parent = array.array("q")
        self._start = array.array("d")
        self._end = array.array("d")
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._local.stack = self._home_stack

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, stack: list[int]) -> int:
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home else -1
        with self._lock:
            idx = len(self._start)
            self._name.append(name_id)
            self._parent.append(parent)
            self._end.append(float("nan"))
            self._start.append(_clock())
        return idx

    def current_name(self) -> str | None:
        """Name of the innermost open span on the calling thread."""
        stack = self._stack()
        return self.names[self._name[stack[-1]]] if stack else None

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack()
        idx = self._open(self._name_id(name), stack)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self._end[idx] = _clock()

    # -- instrumenting ----------------------------------------------------

    def lookup(self, qualname: str):
        module_name, _, attr = f"{self.package}.{qualname}".rpartition(".")
        module = sys.modules.get(module_name)
        return getattr(module, attr, None) if module is not None else None

    def _note_absent(self, qualname: str) -> None:
        if qualname not in self.absent:
            self.absent.append(qualname)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every package-level name that holds original."""
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def wrap(self, qualname: str, hook=None) -> bool:
        """Record a span for each call of package.qualname.

        hook(args, kwargs), when given, runs at entry and may return a
        callback done(result, elapsed_s) that runs after a normal return.
        A name the package no longer has is listed in self.absent.
        """
        original = self.lookup(qualname)
        if original is None:
            self._note_absent(qualname)
            return False
        name_id = self._name_id(qualname)
        tracer = self

        def traced(*args, **kwargs):
            done = hook(args, kwargs) if hook is not None else None
            stack = tracer._stack()
            idx = tracer._open(name_id, stack)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                end = _clock()
                tracer._end[idx] = end
            if done is not None:
                done(result, end - tracer._start[idx])
            return result

        traced.__wrapped__ = original
        self._replace_everywhere(original, traced)
        return True

    def wrap_generator_factory(self, qualname: str, span_name: str, counter: str) -> bool:
        """Proxy the generators returned by package.qualname.

        Every draw on a returned generator records a span called
        span_name and adds the number of variates drawn to counter.
        """
        original = self.lookup(qualname)
        if original is None:
            self._note_absent(qualname)
            return False
        tracer = self

        def factory(*args, **kwargs):
            return _CountingGenerator(original(*args, **kwargs), tracer, span_name, counter)

        factory.__wrapped__ = original
        self._replace_everywhere(original, factory)
        return True

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, Stat]:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the union of the intervals
        its child spans cover, clipped to the span itself.
        """
        start, end, parent = self._start, self._end, self._parent
        children: dict[int, list[int]] = {}
        for idx, p in enumerate(parent):
            if p >= 0:
                children.setdefault(p, []).append(idx)
        stats = {name: Stat() for name in self.names}
        for idx, name_id in enumerate(self._name):
            lo, hi = start[idx], end[idx]
            covered = 0.0
            kids = children.get(idx)
            if kids:
                cur_lo = cur_hi = None
                for c_lo, c_hi in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
                    if c_hi <= c_lo:
                        continue
                    if cur_hi is None or c_lo > cur_hi:
                        if cur_hi is not None:
                            covered += cur_hi - cur_lo
                        cur_lo, cur_hi = c_lo, c_hi
                    else:
                        cur_hi = max(cur_hi, c_hi)
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
            stat = stats[self.names[name_id]]
            stat.calls += 1
            stat.total_s += hi - lo
            stat.self_s += hi - lo - covered
        return stats

    def span_count(self) -> int:
        return len(self._start)


class _CountingGenerator:
    """Forwards to a numpy Generator; each draw is a span and is counted.

    Any method call counts the variates it returns, so ``random`` counts
    uniform doubles and a sampler that switches to another distribution
    is still counted.
    """

    def __init__(self, gen, tracer: Tracer, span_name: str, counter: str):
        self._gen = gen
        self._tracer = tracer
        self._span_name = span_name
        self._counter = counter

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value

        def draw(*args, **kwargs):
            out = self._tracer.span(self._span_name, value, *args, **kwargs)
            self._tracer.add(self._counter, getattr(out, "size", 1))
            return out

        return draw
