"""In-memory spans around calls into the package, for the traced run.

A span has a name (``<layer>.<call>``), start and end on the perf_counter
clock, the id of the span that was open when it started, and the run id that
every span of one benchmark invocation shares.  Spans stay in memory until
``dump`` writes them out.  A disabled tracer hands back one shared no-op
context, so untraced runs pay a method call per span and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time
import uuid
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._noop = contextlib.nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._noop
        return self._record(name)

    def timed(self, name: str, fn):
        """(fn(), wall seconds it took), inside a span called ``name``."""
        with self.span(name):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(id=len(self.spans), parent=parent, name=name, start=time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered, reach = 0.0, sp.start
            for ch in sorted(children.get(sp.id, []), key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sp.id] = sp.duration - covered
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix before the dot)."""
        totals: dict[str, float] = {}
        for sp_id, t in self.self_times().items():
            layer = self.spans[sp_id].name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + t
        return totals

    def dump(self, path: str, extra: dict) -> None:
        selfs = self.self_times()
        rows = [dict(asdict(sp), run_id=self.run_id, self=selfs[sp.id]) for sp in self.spans]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, **extra, "spans": rows}, fh, indent=1)
