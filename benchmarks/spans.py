"""In-memory spans for traced benchmark runs.

A span brackets one call into recomb.  It records its name, the run it
belongs to, the span that encloses it, wall start and end, CPU seconds and
the process's resident set size when it ends.  Spans stay in memory and are
written out with the run record when the run ends.  Counts (matrix sizes,
ranks, samples) are recorded on the same tracer, at the same boundaries.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

_PAGE = os.sysconf("SC_PAGE_SIZE")

SPAN_STATS = {
    "wall_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "cpu_per_wall": ("ratio", "higher"),
    "rss_after_mb": ("MB", "lower"),
}


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / 2**20


@dataclass
class Span:
    name: str
    run_id: str
    parent: int | None          # index of the enclosing span, None at the top
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    rss_after_mb: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one run; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.bookkeeping_s = 0.0    # time spent inside the tracer itself
        self._stack: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = value

    @contextmanager
    def _record(self, name: str):
        t0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.run_id, parent, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        c0 = time.process_time()
        sp.start = time.perf_counter()
        self.bookkeeping_s += sp.start - t0
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu_s = time.process_time() - c0
            sp.rss_after_mb = rss_mb()
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - sp.end

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's wall time minus the wall time of its direct children."""
    own = [s.wall_s for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.wall_s
    return own


def span_metrics(spans: list[Span], names) -> dict[str, float]:
    """`<name>.<stat>` for every name in `names`, summed over its spans.

    A name with no span reads 0, so every traced run reports the same keys.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in names:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        wall = sum(spans[i].wall_s for i in idx)
        cpu = sum(spans[i].cpu_s for i in idx)
        out[f"{name}.wall_s"] = wall
        out[f"{name}.self_s"] = sum(own[i] for i in idx)
        out[f"{name}.cpu_s"] = cpu
        out[f"{name}.cpu_per_wall"] = cpu / wall if wall > 0 else 0.0
        out[f"{name}.rss_after_mb"] = spans[idx[-1]].rss_after_mb if idx else 0.0
    return out
