"""Operational telemetry: histograms, event logs, stats, flight recorder.

The runtime half of the observability story.  :mod:`repro.trace` (PR 4)
records what a *finished* run did — spans, provenance, counters;
:mod:`repro.obs` makes the *running* service introspectable:

* :mod:`~repro.obs.hist` — deterministic fixed-bucket log2 histograms
  with exact merge, for latency/size/depth distributions;
* :mod:`~repro.obs.events` — bounded structured lifecycle event logs
  keyed by correlation ids;
* :mod:`~repro.obs.recorder` — the flight recorder, a view that writes
  ``repro.postmortem/2`` dumps from the tails of the service's own
  event log and span ring;
* :mod:`~repro.obs.telemetry` — the per-service bundle of the
  histograms and the event log (each signal is kept once, on the
  service instance; nothing is mirrored into the process-wide metrics
  registry);
* :mod:`~repro.obs.prom` — Prometheus-style text exposition of the
  ``repro.obs/2`` stats snapshot.

Contracts (docs/operations.md): telemetry reads only the host clock and
never a simulated charge; every buffer is bounded, drop-accounted, and
clearable; event ordering is sequence-numbered, never wall-clock-tied.
"""

from .events import EVENTS, EventLog
from .hist import Log2Histogram, merge_histograms
from .prom import render_prometheus
from .recorder import POSTMORTEM_SCHEMA, FlightRecorder
from .telemetry import HIST_SPECS, STATS_SCHEMA, ServiceTelemetry

__all__ = [
    "EVENTS",
    "EventLog",
    "FlightRecorder",
    "HIST_SPECS",
    "Log2Histogram",
    "POSTMORTEM_SCHEMA",
    "STATS_SCHEMA",
    "ServiceTelemetry",
    "merge_histograms",
    "render_prometheus",
]
