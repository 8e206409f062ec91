"""Process-wide metrics registry: one namespace for every host-side counter.

Before this module, host-side execution counters were scattered: crossing
cache hits/misses in ``repro.core.family``, movement-plan stats in
``repro.ops.plans``, charge-memo sizes in ``repro.machines.machine``,
campaign bookkeeping in ``repro.verify``.  Each had its own ad-hoc
``*_stats()`` / ``reset_*()`` pair and its own ``--verbose`` rendering.

The registry unifies them behind two primitives:

* :class:`Counter` — a monotonically increasing cell (ints or float
  accumulators such as compile seconds).  Hot paths hold the cell and do
  ``cell.value += 1``; no dict lookup or lock on the increment path (the
  simulators are single-threaded per process).
* **gauges** — zero-argument callables sampled at snapshot time, for
  values that are views of live state (cache sizes).

Value distributions are not registry cells: the query service keeps its
latency and size histograms on its own instance
(:class:`repro.obs.telemetry.ServiceTelemetry`), together with its exact
serving counters (``QueryService.stats()``), so every serving signal is
stored once.

``snapshot()`` returns every counter and gauge as one flat
``{dotted.name: value}`` dict — the single API trace exporters, the
``--verbose`` cache table, and benchmark provenance all read.

The registry is **process-local** by design: worker processes of a
``--jobs N`` campaign own independent registries, and the campaign engine
merges what it needs (per-item traces, report counts) by item index in the
parent.  Like the plan and charge caches, counters describe how the host
executed a run — never simulated charges.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Counter", "MetricsRegistry", "REGISTRY", "get_counter",
           "register_gauge", "registry_snapshot", "reset_counters"]


class Counter:
    """A named, monotonically increasing counter cell."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value=0):
        self.name = name
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0 if isinstance(self.value, int) else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, {self.value!r})"


class MetricsRegistry:
    """Named counters and gauges with a single snapshot/reset API."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Callable[[], object]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, initial=0) -> Counter:
        """The counter cell for ``name``, creating it on first use.

        Repeated calls return the same cell, so modules can bind it at
        import time and increment without lookups.
        """
        cell = self._counters.get(name)
        if cell is None:
            cell = self._counters[name] = Counter(name, initial)
        return cell

    def gauge(self, name: str, fn: Callable[[], object]) -> None:
        """Register (or replace) a lazily sampled gauge."""
        self._gauges[name] = fn

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every counter value and sampled gauge, as one sorted flat dict."""
        out = {name: cell.value for name, cell in self._counters.items()}
        for name, fn in self._gauges.items():
            try:
                out[name] = fn()
            except Exception:  # pragma: no cover - defensive: a dead gauge
                out[name] = None  # must not break diagnostics
        return dict(sorted(out.items()))

    def counter_values(self) -> dict:
        """Every counter's current value (no gauges): the
        part of the registry a worker's increments can be summed from."""
        return {name: cell.value for name, cell in self._counters.items()}

    def reset(self) -> None:
        """Zero every counter (gauges are read-only views)."""
        for cell in self._counters.values():
            cell.reset()

    # ------------------------------------------------------------------
    def render_table(self, snap: dict | None = None) -> str:
        """The one coherent ``--verbose`` cache/counter table.

        Counters are grouped by their dotted prefix; derived hit rates are
        appended for any group exposing both ``hits`` and ``misses``.
        ``snap`` (default: this registry's :meth:`snapshot`) lets a
        parent render values merged from worker processes.
        """
        if snap is None:
            snap = self.snapshot()
        groups: dict[str, dict[str, object]] = {}
        for name, value in snap.items():
            prefix, _, leaf = name.rpartition(".")
            groups.setdefault(prefix or name, {})[leaf or name] = value
        lines = ["counter/gauge table:"]
        for prefix in sorted(groups):
            fields = groups[prefix]
            hits, misses = fields.get("hits"), fields.get("misses")
            if isinstance(hits, (int, float)) and isinstance(misses, (int, float)):
                total = hits + misses
                fields = dict(fields)
                fields["hit_rate"] = (
                    f"{hits / total:.1%}" if total else "n/a"
                )
            rendered = "  ".join(
                f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(fields.items())
            )
            lines.append(f"  {prefix:24s} {rendered}")
        return "\n".join(lines)


#: The process-wide registry every subsystem shares.
REGISTRY = MetricsRegistry()


def get_counter(name: str, initial=0) -> Counter:
    """Module-level convenience: ``REGISTRY.counter(name)``."""
    return REGISTRY.counter(name, initial)


def register_gauge(name: str, fn: Callable[[], object]) -> None:
    """Module-level convenience: ``REGISTRY.gauge(name, fn)``."""
    REGISTRY.gauge(name, fn)


def registry_snapshot() -> dict:
    """Module-level convenience: ``REGISTRY.snapshot()``."""
    return REGISTRY.snapshot()


def reset_counters() -> None:
    """Module-level convenience: ``REGISTRY.reset()``."""
    REGISTRY.reset()
