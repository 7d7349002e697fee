"""Outside-in timing: per-layer spans and chunked pass clocks.

Nothing here touches the simulator's source.  Both tools replace a
callable attribute on a live object (an instance, a class or a module)
with a timing wrapper and put the original back afterwards:

* :class:`Tracer` records a span per call — name, start, end and the
  enclosing span — keeps aggregates (calls, total and self time) for
  every name and a bounded list of raw spans in memory, and writes the
  raw spans as Chrome trace-event JSON when the run ends.  A span's
  self time is its duration minus the time covered by its child spans.
* :class:`ChunkClock` cuts an untraced pass into fixed chunks of calls
  to one hook (a session ``step``, a GEMV measurement), reading the
  clock and probing the host's current speed at each chunk boundary.
  The simulation is deterministic, so chunk ``k`` holds the same work
  in every repetition of a pass; scaling each chunk by the speed probed
  around it and keeping its fastest scaled time filters the shared
  host's speed swings out of the pass time (see ``README.md``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

perf_ns = time.perf_counter_ns

#: Span name, or a function of the call arguments returning a name (or
#: ``None`` to let that call through untimed).
SpanName = Union[str, Callable[..., Optional[str]]]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        # Instances get an instance attribute that shadows the class
        # method; classes and modules get the attribute itself replaced.
        own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, own,
                           owner.__dict__[attr] if own else None))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, own, value = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class Tracer:
    """In-memory span recorder with per-name self-time aggregates."""

    def __init__(self, max_spans: int = 200_000) -> None:
        #: name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = {}
        #: raw spans (name, start_ns, end_ns, parent index or -1)
        self.spans: List[Tuple[str, int, int, int]] = []
        self.max_spans = max_spans
        self.dropped = 0
        # open frames: [name, start_ns, child_ns, span index]
        self._stack: List[List[Any]] = []
        self._patches = _Patches()

    # -- recording ------------------------------------------------------

    def _enter(self, name: str, raw: bool = True) -> List[Any]:
        frame = [name, perf_ns(), 0, -1]
        if raw:
            if len(self.spans) < self.max_spans:
                parent = self._stack[-1][3] if self._stack else -1
                frame[3] = len(self.spans)
                self.spans.append((name, frame[1], 0, parent))
            else:
                self.dropped += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: List[Any]) -> None:
        end = perf_ns()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, owner: Any, attr: str, name: SpanName,
             raw: bool = True) -> None:
        """Record a span around every call of ``owner.attr``.

        ``raw=False`` keeps only the aggregates for this name — for
        per-request bookkeeping calls, whose raw spans would swamp the
        bounded span list.
        """
        enter, leave = self._enter, self._exit

        def make(original: Callable) -> Callable:
            if callable(name):
                def traced(*args, **kwargs):
                    label = name(*args, **kwargs)
                    if label is None:
                        return original(*args, **kwargs)
                    frame = enter(label, raw)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        leave(frame)
            else:
                def traced(*args, **kwargs):
                    frame = enter(name, raw)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        leave(frame)
            return traced
        self._patches.replace(owner, attr, make)

    def wrap_all(self, owner: Any, attrs: Tuple[str, ...], name: str,
                 raw: bool = True) -> None:
        """:meth:`wrap` several methods of one object under one name."""
        for attr in attrs:
            self.wrap(owner, attr, name, raw)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        self._patches.restore()

    # -- queries --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def write_chrome_trace(self, path: str) -> None:
        """Write the raw spans as Chrome trace-event JSON (µs units)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - origin) / 1e3,
                   "dur": max(0, end - start) / 1e3,
                   "args": {"parent": parent}}
                  for name, start, end, parent in self.spans if end]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"dropped_spans": self.dropped,
                                     "stats": self.stats}}, handle)


class ChunkClock:
    """Per-chunk wall times of one pass, each with a host-speed probe.

    :meth:`hook` wraps a callable so that every ``every``-th call closes
    the current chunk; :meth:`start` opens the first chunk and
    :meth:`stop` closes the last one, so the chunks cover the whole
    timed region including the work between hooked calls.  ``probe``
    (a short fixed loop returning its own wall time) runs at every chunk
    boundary, outside the chunks, so each chunk can be scaled by the host
    speed measured right around it.
    """

    def __init__(self, every: int, probe: Callable[[], float]) -> None:
        self.every = every
        self.probe = probe
        self.chunks: List[float] = []
        #: probe times at the chunk boundaries (one more than chunks)
        self.probes: List[float] = []
        self._calls = 0
        self._mark = 0.0
        self._patches = _Patches()

    def _boundary(self) -> None:
        now = time.perf_counter()
        self.chunks.append(now - self._mark)
        self.probes.append(self.probe())
        self._mark = time.perf_counter()

    def hook(self, owner: Any, attr: str) -> None:
        def make(original: Callable) -> Callable:
            def hooked(*args, **kwargs):
                self._calls += 1
                if self._calls % self.every == 0:
                    self._boundary()
                return original(*args, **kwargs)
            return hooked
        self._patches.replace(owner, attr, make)

    def start(self) -> None:
        self.probes.append(self.probe())
        self._mark = time.perf_counter()

    def stop(self) -> float:
        """Close the last chunk and unhook; returns the pass wall time."""
        self._boundary()
        self._patches.restore()
        return sum(self.chunks)

    def scaled(self, reference: float) -> List[float]:
        """Chunk times at the reference probe time.

        Each chunk is scaled by ``reference`` over the mean of the probes
        taken just before and just after it.
        """
        return [chunk * 2.0 * reference / (before + after)
                for chunk, before, after in zip(self.chunks, self.probes,
                                                self.probes[1:])]
