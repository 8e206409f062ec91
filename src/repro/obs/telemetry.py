"""Per-service telemetry bundle: histograms + the event log + cid mint.

:class:`ServiceTelemetry` is the one object :class:`repro.service.server.
QueryService` holds for its operational signals.  It owns

* the five serving histograms of :data:`HIST_SPECS` as **instance**
  cells (one service's distribution, resettable with the service) — the
  only copy: no process-wide registry cell mirrors them;
* the bounded :class:`~repro.obs.events.EventLog`, the one ring every
  lifecycle event is appended to (a postmortem reads its tail, see
  :mod:`repro.obs.recorder`);
* the correlation-id mint: ``q``/``m``/``d`` prefixes for query,
  mutation, and dynamic-query requests and ``b`` for batch units, each
  numbered by its own monotone counter — ids are deterministic for a
  deterministic arrival order, and never derived from clocks or
  ``id()``.

Telemetry is host-side only: observations are wall-clock durations or
queue/batch sizes, and nothing here ever touches a simulated charge.
"""

from __future__ import annotations

from .events import EventLog
from .hist import Log2Histogram

__all__ = ["HIST_SPECS", "STATS_SCHEMA", "ServiceTelemetry"]

#: The versioned stats-snapshot schema tag (`QueryService.stats()`).
STATS_SCHEMA = "repro.obs/2"

#: The serving histograms.  Ranges are powers of two end to end so the
#: bucket edges are exact floats: latencies span ~1 us .. 64 s, sizes
#: span 1 .. 4096 (one bucket per power of two).
HIST_SPECS = {
    "request_latency_s": dict(lo=2.0 ** -20, hi=2.0 ** 6, unit="s"),
    "batch_size": dict(lo=1.0, hi=2.0 ** 12, unit="requests"),
    "queue_depth": dict(lo=1.0, hi=2.0 ** 12, unit="requests"),
    "cache_lookup_s": dict(lo=2.0 ** -24, hi=2.0 ** 2, unit="s"),
    "worker_turnaround_s": dict(lo=2.0 ** -20, hi=2.0 ** 6, unit="s"),
}

#: Correlation-id prefixes per lifecycle domain.
_CID_DOMAINS = ("q", "m", "d", "b")


class ServiceTelemetry:
    """One service instance's histograms, event log, and cid mint."""

    def __init__(self, *, event_capacity: int = 4096, events_path=None):
        self.hists = {
            name: Log2Histogram(name, **spec)
            for name, spec in HIST_SPECS.items()
        }
        self.events = EventLog(event_capacity, path=events_path)
        self._mints = {domain: 0 for domain in _CID_DOMAINS}

    # ------------------------------------------------------------------
    # Correlation ids
    # ------------------------------------------------------------------
    def mint(self, domain: str = "q") -> str:
        """The next correlation id for ``domain`` (``q``/``m``/``d``/``b``)."""
        n = self._mints[domain]
        self._mints[domain] = n + 1
        return f"{domain}-{n:06d}"

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one sample into the service's histogram ``name``."""
        self.hists[name].observe(value)

    def emit(self, event: str, cid: str | None = None, **fields) -> dict:
        """Emit one lifecycle event into the event log; returns it."""
        return self.events.record(event, cid, fields)

    # ------------------------------------------------------------------
    # Snapshots / hygiene
    # ------------------------------------------------------------------
    def histogram_dicts(self) -> dict:
        """Full bucket-array snapshots, keyed by histogram name."""
        return {name: h.to_dict() for name, h in self.hists.items()}

    def snapshot(self) -> dict:
        """The telemetry sections of the ``repro.obs/2`` stats surface."""
        return {
            "histograms": self.histogram_dicts(),
            "events": self.events.stats(),
        }

    def clear(self) -> None:
        """Clear the histograms and the event ring (the event counters
        and the sequence keep going)."""
        for h in self.hists.values():
            h.clear()
        self.events.clear()

    def close(self) -> None:
        self.events.close()
