"""Prometheus-style text exposition of a ``repro.obs/2`` snapshot.

Renders the :meth:`QueryService.stats()` snapshot in the classic
text-based exposition format: counters as untyped gauges, histograms as
cumulative ``_bucket{le="..."}`` series with ``_sum``/``_count`` — the
shape every metrics scraper already parses.  The renderer is a pure
function of the snapshot dict (no clocks, no registry reads), so the
same snapshot always renders the same bytes; ordering is sorted-name
deterministic.

Names are sanitised to the metric charset ``[a-zA-Z0-9_]`` and prefixed
``repro_service_``; nested counter groups flatten with ``_`` (so
``cache.hits`` becomes ``repro_service_cache_hits``).
"""

from __future__ import annotations

import math

__all__ = ["render_prometheus"]

_PREFIX = "repro_service_"


def _metric_name(*parts: str) -> str:
    raw = "_".join(p for p in parts if p)
    return _PREFIX + "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in raw
    )


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    if value is True or value is False:
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _flat_numbers(tree: dict, prefix: str = "") -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for key in sorted(tree):
        value = tree[key]
        path = f"{prefix}_{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.extend(_flat_numbers(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((path, value))
    return out


def _render_histogram(name: str, doc: dict, lines: list[str]) -> None:
    from .hist import Log2Histogram

    hist = Log2Histogram.from_dict(doc)
    metric = _metric_name(name)
    lines.append(f"# TYPE {metric} histogram")
    for le, cum in hist.cumulative():
        bound = "+Inf" if math.isinf(le) else repr(le)
        lines.append(f'{metric}_bucket{{le="{bound}"}} {cum}')
    lines.append(f"{metric}_sum {_fmt(hist.total)}")
    lines.append(f"{metric}_count {hist.count}")


def render_prometheus(snapshot: dict) -> str:
    """The text exposition of one ``repro.obs/2`` stats snapshot."""
    lines: list[str] = []
    schema = snapshot.get("schema")
    if schema:
        lines.append(f"# repro stats snapshot schema={schema}")
    for section in ("uptime", "counters", "cache", "dynamic", "pools",
                    "events"):
        tree = snapshot.get(section)
        if not isinstance(tree, dict):
            continue
        for path, value in _flat_numbers(tree, section):
            metric = _metric_name(path)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(value)}")
    for name in sorted(snapshot.get("histograms") or {}):
        doc = snapshot["histograms"][name]
        if isinstance(doc, dict) and doc.get("kind") == "log2":
            _render_histogram(name, doc, lines)
    return "\n".join(lines) + "\n"
