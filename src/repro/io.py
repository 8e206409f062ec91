"""Serialization of dynamic systems and piecewise results to plain JSON.

A practical necessity for a usable library: workloads (systems of motions)
and computed envelopes can be saved, shared, and reloaded — e.g. to archive
a benchmark's exact input, or to hand a collision report to another tool.

Only built-in JSON types are emitted; polynomials serialise as ascending
coefficient lists, so files remain human-readable and stable across
versions.
"""

from __future__ import annotations

import json
import math
from typing import IO

from .errors import ReproError
from .kinetics.motion import Motion, PointSystem
from .kinetics.piecewise import INF, Piece, PiecewiseFunction
from .kinetics.polynomial import Polynomial

__all__ = [
    "system_to_dict", "system_from_dict", "save_system", "load_system",
    "piecewise_to_dict", "piecewise_from_dict",
]

_FORMAT = "repro/point-system"
_VERSION = 1


def system_to_dict(system: PointSystem) -> dict:
    """A JSON-ready description of a point system."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "dimension": system.dimension,
        "k": system.k,
        "motions": [
            [list(coord._cl) for coord in motion.coords]
            for motion in system.motions
        ],
    }


def system_from_dict(data: dict) -> PointSystem:
    """Inverse of :func:`system_to_dict`, with format validation."""
    if not isinstance(data, dict) or data.get("format") != _FORMAT:
        raise ReproError(f"not a {_FORMAT} document")
    if data.get("version") != _VERSION:
        raise ReproError(f"unsupported version {data.get('version')!r}")
    motions = [
        Motion(Polynomial(coeffs) for coeffs in rows)
        for rows in data["motions"]
    ]
    system = PointSystem(motions)
    if system.dimension != data.get("dimension"):
        raise ReproError("dimension field disagrees with the motions")
    return system


def save_system(system: PointSystem, fp: IO[str]) -> None:
    """Write a system to an open text file."""
    json.dump(system_to_dict(system), fp, indent=2)


def load_system(fp: IO[str]) -> PointSystem:
    """Read a system from an open text file."""
    return system_from_dict(json.load(fp))


def piecewise_to_dict(pw: PiecewiseFunction) -> dict:
    """Serialise a piecewise-polynomial result (envelope, D(t), ...).

    Piece functions must be :class:`Polynomial`; labels must be JSON-able
    (ints, strings, or lists/tuples thereof).
    """
    pieces = []
    for p in pw.pieces:
        if not isinstance(p.fn, Polynomial):
            raise ReproError(
                "only polynomial-valued piecewise functions serialise; "
                f"got a piece holding {type(p.fn).__name__}"
            )
        label = list(p.label) if isinstance(p.label, tuple) else p.label
        pieces.append({
            "lo": p.lo,
            "hi": None if math.isinf(p.hi) else p.hi,
            "coeffs": list(p.fn._cl),
            "label": label,
        })
    return {"format": "repro/piecewise", "version": _VERSION,
            "pieces": pieces}


def piecewise_from_dict(data: dict) -> PiecewiseFunction:
    """Inverse of :func:`piecewise_to_dict`."""
    if not isinstance(data, dict) or data.get("format") != "repro/piecewise":
        raise ReproError("not a repro/piecewise document")
    pieces = []
    for rec in data["pieces"]:
        hi = INF if rec["hi"] is None else rec["hi"]
        label = rec["label"]
        if isinstance(label, list):
            label = tuple(label)
        pieces.append(Piece(rec["lo"], hi, Polynomial(rec["coeffs"]), label))
    return PiecewiseFunction(pieces)
