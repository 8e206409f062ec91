"""The flight recorder: a postmortem view over the service's own rings.

A :class:`FlightRecorder` keeps nothing of its own.  It reads the tail of
the service's event log (:class:`~repro.obs.events.EventLog`) and of its
span ring, so that when the service degrades (a batch exhausts its
retries into a ``ServiceError``) or a worker dies, :meth:`dump` can
write a provenance-stamped ``repro.postmortem/2`` file capturing what
the service was doing *just before* the failure: the last
:data:`POSTMORTEM_EVENTS` events and the last :data:`POSTMORTEM_SPANS`
spans still retained.  An event the log has already dropped is not in
the dump.  ``python -m repro.report postmortem <file>`` renders the
dump, grouping the failing request's full correlated event chain by
``cid``.

The recorder reads no clock: the provenance manifest stamped into a dump
is the only timestamp, taken once at dump time.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence

from .events import EventLog

__all__ = ["POSTMORTEM_EVENTS", "POSTMORTEM_SCHEMA", "POSTMORTEM_SPANS",
           "FlightRecorder"]

POSTMORTEM_SCHEMA = "repro.postmortem/2"

#: How many of the most recent events and spans a postmortem keeps.
POSTMORTEM_EVENTS = 512
POSTMORTEM_SPANS = 256


class FlightRecorder:
    """Builds and writes postmortems from an event log and a span ring."""

    def __init__(self, events: EventLog, spans: Sequence[dict]):
        self._log = events
        self._spans = spans

    def document(self, reason: str, context: dict | None = None,
                 stats: dict | None = None) -> dict:
        """The postmortem document (what :meth:`dump` writes)."""
        from ..trace.provenance import provenance_manifest

        return {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "context": dict(context or {}),
            "events": list(self._log.records)[-POSTMORTEM_EVENTS:],
            "spans": list(self._spans)[-POSTMORTEM_SPANS:],
            "stats": dict(stats or {}),
            "provenance": provenance_manifest(
                config={"mode": "postmortem", "reason": reason}),
        }

    def dump(self, path, reason: str, context: dict | None = None,
             stats: dict | None = None) -> pathlib.Path:
        """Write the postmortem file for ``reason``; returns its path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.document(reason, context, stats)
        path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
        return path
