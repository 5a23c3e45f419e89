"""Spans recorded around the benchmark's own calls into quadseq.

A span is (id, name, start, end, parent, op): `name` is "<layer>.<function>"
for a call into a package module, or "bench.op" / "bench.check" for the
benchmark's own root spans; `parent` is the id of the root span the call ran
under; `op` is the operation id shared by every span of one operation, its
output check included.  Spans stay in memory and are written out once, at
the end of the run.
"""

import json
import time
from collections import defaultdict


def untraced(name, fn, *args, **kwargs):
    """Call adapter used with tracing off: no bookkeeping at all."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._next_id = 0
        self._parent = None
        self._op = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def root(self, name, op, fn, *args):
        """Run fn(self.call, *args) under a root span of operation `op`."""
        span_id = self._new_id()
        self._parent, self._op = span_id, op
        start = time.perf_counter()
        try:
            return fn(self.call, *args)
        finally:
            self.spans.append((span_id, name, start, time.perf_counter(), None, op))
            self._parent = self._op = None

    def call(self, name, fn, *args, **kwargs):
        """Call adapter used with tracing on: one span per call."""
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (span_id, name, start, time.perf_counter(), self._parent, self._op)
            )

    def per_op(self):
        """{op: {"calls": {name: [total seconds, count]},
                 "self": {layer: seconds}}} over every recorded span.

        A span's self time is its duration minus that of its children.  Self
        time per layer covers the timed operation only: the root span
        "bench.op" counts as layer "bench" (the benchmark's own work between
        calls), and spans under "bench.check" are left out."""
        child_time = defaultdict(float)
        root_name = {}
        for span_id, name, start, end, parent, _ in self.spans:
            if parent is None:
                root_name[span_id] = name
            else:
                child_time[parent] += end - start
        ops = defaultdict(lambda: {"calls": defaultdict(lambda: [0.0, 0]),
                                   "self": defaultdict(float)})
        for span_id, name, start, end, parent, op in self.spans:
            dur = end - start
            entry = ops[op]
            entry["calls"][name][0] += dur
            entry["calls"][name][1] += 1
            if root_name.get(parent if parent is not None else span_id) == "bench.op":
                entry["self"][name.split(".", 1)[0]] += dur - child_time[span_id]
        return ops

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
