"""Outside-in span recorder for the lintraj benchmark.

The recorder never edits the library.  It replaces names *as bound in a
namespace* (a module such as ``lintraj.cli`` or the benchmark's ``workloads``,
or a single object) with a wrapper that records one span per call, and puts
the originals back afterwards.  Spans are kept in memory and written out when the run ends.

A span is ``[name, start, end, parent, trace_id]``: ``parent`` is the index of
the enclosing span (-1 for a root), ``trace_id`` names the trajectory, record
batch or CLI command the call belongs to.  The library runs single-threaded
under the benchmark (``LINTRAJ_THREADS`` unset), so a plain stack gives the
parent.  The library has no queue or lock, so there is no wait time to record.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trace_id: str = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self, wall_s: float) -> dict:
        """Per span name: calls, self time (duration minus the time covered by
        direct children) and self share of ``wall_s``; plus the part of
        ``wall_s`` no span covers."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        roots = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            if parent < 0:
                roots += end - start
        for entry in out.values():
            entry["share"] = entry["self_s"] / wall_s
        return {"functions": out, "uncovered_s": wall_s - roots}

    def write(self, path: str, origin: float) -> None:
        """Spans as JSON lines, times in seconds since ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent, trace_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "trace": trace_id}) + "\n")
