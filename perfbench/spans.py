"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, job): ``name`` is ``<layer>.<call>``,
``parent`` the index of the enclosing span and ``job`` the identifier shared
by the spans of one job. ``clock`` is also the clock the benchmark times
jobs with. A disabled recorder hands out one shared no-op context, so
untraced passes run the same code path at negligible cost.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


class Spans:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.enabled = False
        self.records: list[list] = []  # [name, start, end, parent, job]
        self._stack: list[int] = []

    def span(self, name: str, job: str | None = None):
        if not self.enabled:
            return _NO_SPAN
        return self._open(name, job)

    @contextlib.contextmanager
    def _open(self, name: str, job: str | None):
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = self.records[parent][4]
        index = len(self.records)
        self.records.append([name, self.clock(), None, parent, job])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = self.clock()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.records:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


def layer_self_times(records: list[list], first: int = 0) -> dict[str, float]:
    """Seconds per layer spent in spans ``records[first:]`` outside their
    child spans. The layer is the part of the span name before the dot."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, job in records[first:]:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index in range(first, len(records)):
        name, start, end, parent, job = records[index]
        out[name.split(".", 1)[0]] += (end - start) - child_time[index]
    return dict(out)
