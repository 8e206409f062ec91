"""Structured lifecycle event logs with correlation ids.

One :class:`EventLog` per service instance records the request lifecycle
as **structured dicts** (never formatted strings — RPR009 flags f-string
payloads at emission sites): every record carries the event name from the
fixed :data:`EVENTS` vocabulary, a monotone sequence number, and the
correlation id (``cid``) minted when the request entered the service and
propagated through planner batches, worker payloads, retries, and spans.
One grep for a ``cid`` across the stream reconstructs a request's whole
path — received, batched (batch-scoped, member cids in ``cids``),
dispatched (per attempt), completed or failed.

Ordering discipline: event order is the **sequence number**, assigned at
emission on the single-threaded event loop — never a wall-clock value
whose ties would make two replays disagree.  The log itself reads no
clock at all; any timing a consumer wants lives in the histograms and
span wall fields, keeping the stream deterministic for a deterministic
arrival order.

Hygiene discipline (RPR004/RPR009): the in-memory ring is **bounded**
(``capacity``, oldest dropped with an exact ``dropped`` count) and
**clearable**; an optional JSONL sink mirrors every record to a file for
offline grep when durability matters more than memory.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque

__all__ = ["EVENTS", "EventLog"]

#: The fixed lifecycle vocabulary.  Emission outside it is a ValueError:
#: a typo'd event name would silently break every grep that relies on it.
EVENTS = frozenset({
    "request_received",   # a request passed validation and entered the queue
    "batched",            # the planner formed a batch unit (member cids)
    "dispatched",         # a batch attempt crossed into a shard worker
    "completed",          # the request's response future resolved
    "failed",             # the request (or its batch) errored/degraded
    "mutation_applied",   # a dynamic-family write landed
    "cache_invalidated",  # a mutation evicted cached run keys
})


class EventLog:
    """A bounded, clock-free ring of structured lifecycle events."""

    def __init__(self, capacity: int = 4096, path=None):
        self.capacity = max(0, int(capacity))
        # A deque ring: appends and evictions are O(1), so emission cost
        # is independent of capacity (a list's ``del ring[0]`` memmoves
        # the whole ring on every drop — measurable at serving rates).
        self.records: deque = deque(maxlen=self.capacity or None)
        self.emitted = 0
        self.dropped = 0
        self._seq = 0
        self._path = pathlib.Path(path) if path is not None else None
        self._sink = None

    # ------------------------------------------------------------------
    def emit(self, event: str, cid: str | None = None, **fields) -> dict:
        """Append one structured record; returns it.

        ``fields`` must already be structured values (the JSONL sink
        serialises them as-is) — callers pass ``code="bad_request"``,
        never a pre-formatted message string.
        """
        return self.record(event, cid, fields)

    def record(self, event: str, cid: str | None, fields: dict) -> dict:
        """Stamp the next sequence number onto ``fields``, retain it in
        the ring and mirror it to the sink; returns it.

        The one implementation behind :meth:`emit` and
        :meth:`ServiceTelemetry.emit
        <repro.obs.telemetry.ServiceTelemetry.emit>`, which hand over
        their keyword dict as is (re-packing ``**fields`` through a
        second keyword call would double the per-event cost).  The dict
        returned is the record the ring, the sink and any postmortem
        share.
        """
        if event not in EVENTS:
            raise ValueError(f"unknown event {event!r}; "
                             f"vocabulary: {sorted(EVENTS)}")
        fields["event"] = event
        fields["cid"] = cid
        fields["seq"] = self._seq
        self._seq += 1
        self.emitted += 1
        if self.capacity > 0:
            if len(self.records) >= self.capacity:
                self.dropped += 1  # the deque evicts the oldest itself
            self.records.append(fields)
        if self._path is not None:
            self._write_sink(fields)
        return fields

    def _write_sink(self, rec: dict) -> None:
        """Mirror one record to the JSONL sink (opened lazily)."""
        if self._sink is None:
            self._sink = self._path.open("a")
        self._sink.write(json.dumps(rec, default=str) + "\n")

    # ------------------------------------------------------------------
    def events(self) -> list[dict]:
        """A copy of the retained records, in sequence order."""
        return list(self.records)

    def for_cid(self, cid: str) -> list[dict]:
        """The retained lifecycle chain of one correlation id.

        Matches records carrying the id directly *and* batch-scoped
        records (``dispatched``) whose ``cids`` list includes it — the
        programmatic form of the one-grep reconstruction.
        """
        return [rec for rec in self.records
                if rec.get("cid") == cid or cid in rec.get("cids", ())]

    def stats(self) -> dict:
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "size": len(self.records),
            "capacity": self.capacity,
        }

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop retained records (counters and the sequence keep going)."""
        self.records.clear()

    def close(self) -> None:
        """Flush and close the JSONL sink, if one is open."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __len__(self) -> int:
        return len(self.records)
