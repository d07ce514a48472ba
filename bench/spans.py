"""Span recording around the package's public functions.

The package calls its layers through module attributes (``pafmsm.paf``
calls ``to_transitions`` as ``pafmsm.paf.to_transitions``).  ``Hooks``
replaces every such attribute that holds a traced function with a
wrapper, and restores the originals on exit; the package source is not
touched.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Hooks:
    """Context manager that installs wrappers at every binding of a target.

    ``targets`` maps a span name to ``(owner, attribute)``, where owner is
    a module or class; each module of ``package`` that binds the same
    object under any name gets the wrapper too.  ``make_wrapper(name, fn)``
    returns the replacement.
    """

    def __init__(self, package, targets, make_wrapper):
        self._package = package
        self._targets = targets
        self._make_wrapper = make_wrapper
        self._saved = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self._package or name.startswith(self._package + "."))]
        for span_name, (owner, attr) in self._targets.items():
            original = owner.__dict__[attr]
            wrapper = self._make_wrapper(span_name, original)
            places = [(owner, attr)]
            for module in modules:
                for key, value in vars(module).items():
                    if value is original and (module, key) != (owner, attr):
                        places.append((module, key))
            for place, key in places:
                self._saved.append((place, key, original))
                setattr(place, key, wrapper)
        return self

    def __exit__(self, *exc):
        for place, key, original in reversed(self._saved):
            setattr(place, key, original)
        self._saved.clear()
        return False


class SpanRecorder:
    """Records name, start, end, parent and pass id of every traced call.

    ``counters`` maps a span name to a function of the call's arguments and
    result that returns ``{counter_name: amount}``; the amounts are added
    up per pass.
    """

    def __init__(self, counters=None):
        self.spans = []  # [pass_id, name, start, end, parent index or -1]
        self.counts = defaultdict(lambda: defaultdict(float))
        self._counters = counters or {}
        self._stack = []
        self._pass = -1

    def begin_pass(self, name):
        self._pass += 1
        self._open(name)

    def end_pass(self):
        self._close()

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._pass, name, time.perf_counter(), None, parent])
        self._stack.append(index)

    def _close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def wrap(self, name, fn):
        counter = self._counters.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            recorder._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    recorder.counts[recorder._pass][key] += amount
            return result

        return traced

    def self_times(self):
        """Per pass: {span name: summed self time}, where self time is a
        span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for pass_id, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (pass_id, name, start, end, _) in enumerate(self.spans):
            out[pass_id][name] += (end - start) - child_time[i]
        return out

    def pass_durations(self):
        return {p: end - start for p, _, start, end, parent in self.spans if parent < 0}

    def to_json_rows(self):
        return [
            {"pass": p, "span": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, (p, name, start, end, parent) in enumerate(self.spans)
        ]
