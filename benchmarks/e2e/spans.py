"""The benchmark's own span recorder.

Spans are recorded from outside ``src/repro``: the benchmark wraps the
calls it makes into each layer (and, for the stretch of a traced replay,
the module-level names ``repro.compiler`` calls its passes through).
They are kept in memory and written once, when the run ends.

A span is ``(id, name, start, end, parent, workload, pass)``; a span's
*self time* is its duration minus the part its child spans cover, so
the self times below one ``pass`` span sum to that span's duration.
Only the thread that opened the recorder records: lockstep rank threads
run inside ``program.run`` and are covered by that one span.
"""

import json
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self, workload):
        self.workload = workload
        self.rows = []        # [id, name, start, end, parent, pass]
        self.pass_id = None
        self._stack = []
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, name):
        if threading.get_ident() != self._owner:
            yield
            return
        row = [len(self.rows), name, 0.0, 0.0,
               self._stack[-1] if self._stack else None, self.pass_id]
        self.rows.append(row)
        self._stack.append(row[0])
        row[2] = time.perf_counter()
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        """``fn`` with a span of that name around every call."""
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        spanned.__wrapped__ = fn
        return spanned

    @contextmanager
    def patched(self, targets):
        """Route ``(owner, attribute, span name)`` targets through
        :meth:`wrap` for the length of the ``with`` block."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _name in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #

    def self_times(self):
        """``{span id: self seconds}``."""
        own = {row[0]: row[3] - row[2] for row in self.rows}
        for row in self.rows:
            if row[4] is not None:
                own[row[4]] -= row[3] - row[2]
        return own

    def summary(self):
        """Per span name: calls, total and self milliseconds; plus the
        largest relative gap between a pass span and the self times
        below it (the acceptance check: within 2 %)."""
        own = self.self_times()
        by_name = {}
        per_pass = {}
        for row in self.rows:
            entry = by_name.setdefault(row[1], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += row[3] - row[2]
            entry[2] += own[row[0]]
            per_pass[row[5]] = per_pass.get(row[5], 0.0) + own[row[0]]
        gap = 0.0
        for row in self.rows:
            if row[1] == "pass":
                dur = row[3] - row[2]
                gap = max(gap, abs(per_pass[row[5]] - dur) / dur)
        return {
            "by_name": {name: {"calls": c, "total_ms": t * 1e3,
                               "self_ms": s * 1e3}
                        for name, (c, t, s) in sorted(by_name.items())},
            "max_pass_self_sum_gap": gap,
        }

    def dump(self, path):
        own = self.self_times()
        payload = {
            "workload": self.workload,
            "columns": ["id", "name", "start_s", "end_s", "parent", "pass",
                        "self_s"],
            "spans": [row + [own[row[0]]] for row in self.rows],
            "summary": self.summary(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
