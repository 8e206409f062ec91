"""``python -m repro.report postmortem <file>`` — render a flight dump.

Reads a ``repro.postmortem/2`` document (written by the service's
flight recorder on degradation or worker death, see
:mod:`repro.obs.recorder`) and renders the story an operator needs:
what failed, in which batch/shard, and the **full correlated event
chain** of every request the failure took down — reconstructed by
correlation id from the tail of the service's event log that the dump
carries.

The renderer is read-only and pure: rendering a dump twice prints the
same bytes.
"""

from __future__ import annotations

import json
import pathlib

from ..obs.recorder import POSTMORTEM_SCHEMA

__all__ = ["load_postmortem", "render_postmortem", "main"]


def load_postmortem(path) -> dict:
    """Load and sanity-check one postmortem document."""
    doc = json.loads(pathlib.Path(path).read_text())
    if not isinstance(doc, dict) or "reason" not in doc:
        raise ValueError(f"not a postmortem document: {path}")
    schema = doc.get("schema")
    if schema != POSTMORTEM_SCHEMA:
        raise ValueError(f"unsupported postmortem schema {schema!r}")
    return doc


def _fields(rec: dict, skip=("seq", "event", "cid")) -> str:
    return "  ".join(f"{k}={rec[k]}" for k in rec if k not in skip)


def _chain(events: list[dict], cid: str) -> list[dict]:
    return [rec for rec in events
            if rec.get("cid") == cid or cid in (rec.get("cids") or ())]


def _failing_cids(doc: dict) -> list[str]:
    """Request cids implicated by the dump, most specific source first."""
    context = doc.get("context") or {}
    cids = [c for c in (context.get("cids") or []) if c]
    if cids:
        return cids
    seen: list[str] = []
    for rec in doc.get("events", ()):
        if rec.get("event") == "failed":
            for c in [rec.get("cid"), *(rec.get("cids") or ())]:
                if c and c not in seen:
                    seen.append(c)
    return seen


def render_postmortem(doc: dict, cid: str | None = None,
                      max_chains: int = 8) -> str:
    """The operator-facing text rendering of one dump."""
    lines: list[str] = []
    context = doc.get("context") or {}
    lines.append(f"postmortem: reason={doc.get('reason')} "
                 f"({doc.get('schema')})")
    prov = doc.get("provenance") or {}
    sha = prov.get("git_sha") or "?"
    stamp = prov.get("timestamp") or "?"
    lines.append(f"  recorded at: {stamp}  git={str(sha)[:12]}")
    if context:
        lines.append(f"  context: {_fields(context, skip=('cids',))}")
    events = list(doc.get("events") or [])
    stats = doc.get("stats") or {}
    dropped = (stats.get("events") or {}).get("dropped", 0)
    lines.append(f"  recorder: {len(events)} event(s) retained "
                 f"({dropped} dropped by the event log), "
                 f"{len(doc.get('spans') or [])} span(s)")
    cids = [cid] if cid else _failing_cids(doc)
    if not cids:
        lines.append("no failing correlation ids recorded")
    shown = cids[:max_chains]
    for c in shown:
        chain = _chain(events, c)
        lines.append(f"event chain [{c}] ({len(chain)} event(s)):")
        if not chain:
            lines.append("  (not retained — older than the dump's "
                         "event tail)")
        for rec in chain:
            lines.append(f"  seq {rec.get('seq', '?'):>6}  "
                         f"{rec.get('event', '?'):<18s} {_fields(rec)}")
    if len(cids) > len(shown):
        lines.append(f"... and {len(cids) - len(shown)} more failing "
                     f"request(s); rerun with --cid to inspect one")
    counters = stats.get("counters") or {}
    if counters:
        keys = ("requests", "responses", "errors", "retries", "batches")
        summary = "  ".join(f"{k}={counters[k]}" for k in keys
                            if k in counters)
        lines.append(f"service counters at dump: {summary}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``python -m repro.report postmortem``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.report postmortem",
        description="Render a repro.postmortem/2 flight-recorder dump "
                    "with the failing requests' correlated event chains.",
    )
    parser.add_argument("file", help="postmortem JSON file")
    parser.add_argument("--cid", default=None,
                        help="render this correlation id's chain only")
    parser.add_argument("--max-chains", type=int, default=8,
                        help="cap on rendered event chains (default: 8)")
    args = parser.parse_args(argv)
    try:
        doc = load_postmortem(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load postmortem: {exc}")
        return 2
    print(render_postmortem(doc, cid=args.cid, max_chains=args.max_chains))
    return 0
