"""In-memory span tracer, installed by wrapping powerstruct's public functions.

Nothing in the library is instrumented.  `install` replaces each traced
function or method with a wrapper, in every loaded powerstruct module that
holds it, and `uninstall` puts the originals back.  A wrapper records either

* a span: name, start, end, parent span, job id, and the part of its
  interval covered by aggregated calls and tracer bookkeeping; or
* an aggregated call, for hot leaves such as ring and series arithmetic:
  only a call count and summed self time per job, so memory stays bounded.

A layer's self time is the span's duration minus the part covered by its
children (`self_times`).  The tracer's own bookkeeping after each
aggregated call is timed and reported separately, so per-layer self times,
harness time and bookkeeping add up to the traced wall time.

Clock: time.perf_counter, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the benchmark and the CLI child processes it starts.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter as clock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span record fields, in order.
NAME, START, END, PARENT, JOB, EXCLUDED = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        # (job id, name, calls, self seconds), one row per job and name
        self.job_calls: List[Tuple[object, str, int, float]] = []
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self.bookkeeping_s = 0.0
        self.active = False
        self.job = None
        self._calls: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        # frames: [span index, excluded seconds] or [None, child seconds]
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.last_lambda_series = None
        # names whose counter hook failed, e.g. after a library change
        self.broken_hooks = set()

    # -- spans ------------------------------------------------------------

    def open(self, name: str, job=None) -> int:
        """Start a span; returns its index for `close`."""
        if job is not None:
            self.job = job
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, clock(), None, parent, self.job, 0.0])
        self._stack.append([index, 0.0])
        return index

    def close(self, index: int) -> None:
        end = clock()
        frame = self._stack.pop()
        if frame[0] != index:
            raise RuntimeError(f"span {index} closed out of order")
        record = self.spans[index]
        record[END] = end
        record[EXCLUDED] = frame[1]

    def end_job(self) -> None:
        """Move the aggregated calls of the current job into the log."""
        for name, (calls, self_s) in self._calls.items():
            self.job_calls.append((self.job, name, calls, self_s))
            total = self.totals[name]
            total[0] += calls
            total[1] += self_s
        self._calls.clear()

    def merge(self, child: dict) -> None:
        """Attach the trace of a child process under the innermost open span.

        `child` holds the child's spans, per-job calls, totals, counters,
        maxima and bookkeeping seconds; its root spans get the open span as
        parent and everything is booked to the current job.
        """
        parent = self._stack[-1][0]
        offset = len(self.spans)
        for name, start, end, up, _, excluded in child["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, self.job, excluded])
        self.job_calls += [(self.job, name, calls, self_s) for _, name, calls, self_s in child["job_calls"]]
        for name, (calls, self_s) in child["totals"].items():
            self.totals[name][0] += calls
            self.totals[name][1] += self_s
        for name, value in child["counters"].items():
            self.counters[name] += value
        for name, value in child["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)
        self.bookkeeping_s += child["bookkeeping_s"]
        self.broken_hooks.update(child["broken_hooks"])

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the innermost open span."""
        self.spans.append([name, start, end, self._stack[-1][0], self.job, 0.0])

    def exclude(self, seconds: float) -> None:
        """Time inside the innermost open span that is tracer bookkeeping."""
        self._stack[-1][1] += seconds
        self.bookkeeping_s += seconds

    # -- wrappers -------------------------------------------------------------

    def _span_call(self, name, fn, args, kwargs, post):
        stack = self._stack
        if stack and stack[-1][0] is None:
            # a span inside an aggregated call is aggregated too
            return self._leaf_call(name, fn, args, kwargs, post)
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if post is not None:
            t1 = clock()
            self._post(name, post, args, result)
            t2 = clock()
            self.bookkeeping_s += t2 - t1
            if stack:
                stack[-1][1] += t2 - t1
        return result

    def _leaf_call(self, name, fn, args, kwargs, post):
        stack = self._stack
        frame = [None, 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
        entry = self._calls[name]
        entry[0] += 1
        entry[1] += (t1 - t0) - frame[1]
        if post is not None:
            self._post(name, post, args, result)
        t2 = clock()
        self.bookkeeping_s += t2 - t1
        if stack:
            stack[-1][1] += t2 - t0
        return result

    def _post(self, name, post, args, result):
        try:
            post(self, args, result)
        except (AttributeError, TypeError, ValueError):
            self.broken_hooks.add(name)

    def wrap(self, name: str, fn: Callable, aggregate: bool, post=None) -> Callable:
        call = self._leaf_call if aggregate else self._span_call
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return call(name, fn, args, kwargs, post)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------------

    def install(self, targets: Sequence["Target"]) -> List[str]:
        """Wrap every resolvable target; returns the targets that are absent."""
        absent = []
        for target in targets:
            owner, attr, original = resolve(target.path)
            if owner is None:
                absent.append(target.path)
                continue
            wrapper = self.wrap(target.name, original, target.aggregate, target.post)
            if isinstance(owner, type):
                self._installed.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            # module-level function: rebind it wherever it was imported
            for module in _package_modules(owner.__name__.split(".")[0]):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, value))
                        setattr(module, key, wrapper)
        return absent

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


class Target:
    """A traced name: `module:qualname`, the metric name, and how to record it."""

    __slots__ = ("path", "name", "aggregate", "post")

    def __init__(self, path: str, name: str, aggregate: bool = False, post=None):
        self.path = path
        self.name = name
        self.aggregate = aggregate
        self.post = post


def resolve(path: str):
    """(owner, attribute, object) for `module:qualname`, or (None, None, None).

    A name that no longer exists is reported as absent instead of raising,
    so the benchmark keeps running when a later change removes it.
    """
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    attr = parts[-1]
    value = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
    if value is None or not callable(value):
        return None, None, None
    return owner, attr, value


def _package_modules(package: str):
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


# -- self-time arithmetic -------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span: duration minus what its children cover.

    Children are the spans naming it as parent; `EXCLUDED` time (aggregated
    calls and bookkeeping directly under the span) is subtracted as well.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = _covered(children.get(index, []), start, end)
        out.append(max(0.0, end - start - covered - record[EXCLUDED]))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_by_name(spans, tracer_totals: Optional[Dict[str, List[float]]] = None):
    """Summed self seconds per span name, aggregated calls included."""
    out: Dict[str, float] = defaultdict(float)
    for record, own in zip(spans, self_times(spans)):
        out[record[NAME]] += own
    for name, (_, self_s) in (tracer_totals or {}).items():
        out[name] += self_s
    return out
