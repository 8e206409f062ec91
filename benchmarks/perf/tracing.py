"""In-memory spans around the program's layer boundaries (traced runs only).

The benchmark measures layers from outside: :func:`install` rebinds each
layer's public function at the name its caller looks up (a module
attribute bound by ``from x import f``, or a method on its class) to a
wrapper that records one span per call, and :func:`uninstall` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

A span is ``(id, parent, name, start, end, self, cids, thread)``.  The
parent is the innermost wrapped call still open on the same thread, so
the span stack is per thread: the two shard worker threads and the event
loop each nest their own calls.  ``repro.trace.Tracer`` is not used: its
span stack is process-wide and not safe with two shard threads.

Client-side spans (``submit``/``mutate``/``submit_dynamic``) cross
``await`` points, so they are recorded as roots by the workload with
:meth:`SpanRecorder.client_span`; their correlation id (``cid``) ties
them to the server-side spans that carry the same id.

Aggregates (count, total, self time, selected duration samples) cover
every call; only the first :data:`KEEP` spans are retained for export.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from time import perf_counter

import numpy as np

__all__ = ["SpanRecorder", "install", "uninstall", "layer_of", "percentile"]

#: Spans retained for the Chrome trace; aggregates cover every call.
KEEP = 20_000


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return name.split(".", 1)[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of exact samples (0.0 when there are none).

    Samples are sorted, never bucketed, so a p99 is an observed latency.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if not ordered.size:
        return 0.0
    rank = math.ceil(q * ordered.size - 1e-9)
    return float(ordered[min(ordered.size, max(rank, 1)) - 1])


class _ThreadState:
    __slots__ = ("stack", "agg", "samples")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, child seconds, kept]
        self.agg: dict[str, list] = {}  # name -> [count, total, self]
        self.samples: dict[str, list[float]] = {}


def _tally(st: _ThreadState, name: str, dur: float, self_s: float) -> None:
    agg = st.agg.get(name)
    if agg is None:
        agg = st.agg[name] = [0, 0.0, 0.0]
    agg[0] += 1
    agg[1] += dur
    agg[2] += self_s


class SpanRecorder:
    """Per-thread span stacks, merged aggregates, bounded span retention."""

    def __init__(self, sampled: frozenset[str] = frozenset()) -> None:
        #: Span names whose individual durations are kept for percentiles.
        self.sampled = sampled
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _retain(self, span: tuple) -> None:
        with self._lock:
            if len(self.spans) < KEEP:
                self.spans.append(span)

    def begin(self) -> tuple[_ThreadState, list]:
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        kept = (parent is None or parent[2]) and len(self.spans) < KEEP
        frame = [next(self._ids), 0.0, kept]
        st.stack.append(frame)
        return st, frame

    def end(self, st: _ThreadState, frame: list, name: str, t0: float,
            t1: float, cids) -> None:
        st.stack.pop()
        dur = t1 - t0
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[1] += dur
        self_s = dur - frame[1]
        _tally(st, name, dur, self_s)
        if name in self.sampled:
            st.samples.setdefault(name, []).append(dur)
        if frame[2]:
            self._retain((frame[0], parent[0] if parent else None, name,
                          t0, t1, self_s, cids, threading.get_ident()))

    def client_span(self, name: str, t0: float, t1: float, cid) -> None:
        """A root span for one client operation (it crossed awaits)."""
        _tally(self._state(), name, t1 - t0, 0.0)
        self._retain((next(self._ids), None, name, t0, t1, None,
                      (cid,) if cid else (), threading.get_ident()))

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """``name -> [count, total seconds, self seconds]`` over all threads."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (n, total, self_s) in list(st.agg.items()):
                cell = out.setdefault(name, [0, 0.0, 0.0])
                cell[0] += n
                cell[1] += total
                cell[2] += self_s
        return out

    def samples(self, name: str) -> list[float]:
        with self._lock:
            states = list(self._states)
        out: list[float] = []
        for st in states:
            out.extend(st.samples.get(name, ()))
        return out

    def forest(self) -> list[dict]:
        """Retained spans as a nested forest in the trace-exporter schema."""
        nodes: dict[int, dict] = {}
        roots: list[dict] = []
        for sid, parent, name, t0, t1, self_s, cids, tid in sorted(
                self.spans, key=lambda s: (s[3], s[0])):
            attrs = {"id": sid, "parent": parent, "start_s": t0,
                     "end_s": t1, "self_s": self_s, "thread": tid,
                     "cids": list(cids)}
            node = {"name": name, "cat": layer_of(name), "attrs": attrs,
                    "sim": None, "wall": t1 - t0, "children": []}
            nodes[sid] = node
            if parent is not None and parent in nodes:
                nodes[parent]["children"].append(node)
            else:
                roots.append(node)
        return roots


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _wrap(fn, name: str, rec: SpanRecorder, cids_of, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st, frame = rec.begin()
        t0 = perf_counter()
        if before is not None:
            before(t0, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            cids = cids_of(args, kwargs) if (frame[2] and cids_of) else ()
            rec.end(st, frame, name, t0, t1, cids)
        if after is not None:
            after(t0, t1, args, kwargs)
        return result

    return wrapper


def install(rec: SpanRecorder, targets) -> list[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstall`.

    A target is ``(owner, attr, span name, cids_of, before, after)``.
    When ``owner`` is a class, the method is replaced on the class.
    When it is a module, the function is replaced in every ``repro``
    module that binds it under any name, so each caller's lookup finds
    the wrapper.  ``cids_of(args, kwargs)`` returns the correlation ids
    the call carries; ``before``/``after`` observe the call's start and
    end (queue-wait and hand-off timing).
    """
    undo: list[tuple] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "repro" or n.startswith("repro."))]
    for owner, attr, name, cids_of, before, after in targets:
        fn = owner.__dict__[attr]
        wrapper = _wrap(fn, name, rec, cids_of, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, fn))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, fn))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)
