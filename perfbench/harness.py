"""Operation counting, verdict timing and span tracing for one workload pass.

An operation is one call into a fellsem module, made at a named layer
boundary such as ``action.axioms``. A verdict is one input carried through
all of its workload's operations, or one CLI invocation. An operation fails
when it raises, or when the verdict read from its result differs from the
known answer; the verdict it belongs to then stops.

Every verdict records its ``[start, end]`` on the harness's clock. With
tracing on, every verdict and every operation also records a span
``[name, start, end, parent, input_id]`` in memory; the runner writes the
spans out when the benchmark ends. Spans come only from the benchmark's own
calls, so work nested inside the library is counted under the outer call.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from contextlib import contextmanager


class OpFailed(Exception):
    """Ends the current verdict after one of its operations failed."""


class Harness:
    def __init__(self, trace: bool, clock=time.perf_counter):
        self.trace = trace
        self.clock = clock
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.unexpected = []
        self.layer_failed = Counter()
        self.counts = Counter()
        self.outcomes = []
        self.window = {}
        self._input = None
        self._parent = None

    @contextmanager
    def verdict(self, input_id: str):
        """Time one verdict; a failed operation inside it ends it quietly."""
        self._input = input_id
        start = self.clock()
        if self.trace:
            self._parent = len(self.spans)
            self.spans.append(["verdict", start, None, None, input_id])
        try:
            yield
        except OpFailed:
            pass
        end = self.clock()
        if self.trace:
            self.spans[self._parent][2] = end
            self._parent = None
        self.window[input_id] = (start, end)
        self._input = None

    def build(self, layer: str, fn, *args, **kwargs):
        """An operation with no verdict of its own (a constructor)."""
        return self._op(layer, None, None, None, fn, args, kwargs)

    def check(self, layer: str, want, read, fn, *args, defect=None, **kwargs):
        """An operation whose verdict ``read(result)`` must equal ``want``.

        ``defect(exc)`` returns True when an exception is a recorded known
        defect of the program: it still counts as a failed operation, but
        does not make the run incorrect.
        """
        return self._op(layer, want, read, defect, fn, args, kwargs)

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def _op(self, layer, want, read, defect, fn, args, kwargs):
        self.attempted += 1
        start = self.clock() if self.trace else 0.0
        error = None
        try:
            result = fn(*args, **kwargs)
            got = read(result) if read is not None else None
        except Exception as exc:  # a library failure is a measured outcome
            result, got, error = None, None, exc
        if self.trace:
            self.spans.append([layer, start, self.clock(), self._parent, self._input])
        ok = error is None and (read is None or got == want)
        self.outcomes.append((layer, self._input, ok, repr(got) if error is None else type(error).__name__))
        if ok:
            return result
        self.failed += 1
        self.layer_failed[layer] += 1
        if error is not None and defect is not None and defect(error):
            self.known_defects += 1
        else:
            detail = (traceback.format_exception_only(type(error), error)[-1].strip()
                      if error is not None else f"verdict {got!r}, known answer {want!r}")
            self.unexpected.append({"layer": layer, "input": self._input, "detail": detail})
        raise OpFailed


def layer_times(spans, factor=lambda start, end: 1.0):
    """Per-span-name call count, busy time and self time.

    Busy time sums span durations; self time subtracts the time covered by
    each span's direct children (spans nest and never overlap siblings).
    Every duration is divided by ``factor`` of the outermost span it lies
    in, so that a span and its children share one scale.
    """
    scale = []
    for i, (_, start, end, parent, _) in enumerate(spans):
        scale.append(factor(start, end) if parent is None else scale[parent])
    took = [(end - start) / scale[i] for i, (_, start, end, _, _) in enumerate(spans)]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += took[i]
    out = {}
    for i, (name, _, _, _, _) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["busy_s"] += took[i]
        rec["self_s"] += took[i] - child_time[i]
    return out
