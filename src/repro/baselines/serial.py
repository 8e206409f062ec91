"""Serial baselines (the model of Atallah 1985).

Every Section 3–5 algorithm in :mod:`repro.core` accepts ``machine=None``
to run its serial path; this module additionally provides *cost-counted*
serial runs on the :class:`~repro.machines.topology.SerialTopology` machine,
so benches can compare serial work against parallel time, and convenience
wrappers with the baseline's name at the call site.
"""

from __future__ import annotations

from typing import Sequence

from ..core.envelope import envelope, envelope_serial
from ..core.family import CurveFamily, PolynomialFamily
from ..core.neighbors import closest_point_sequence
from ..kinetics.motion import PointSystem
from ..kinetics.piecewise import PiecewiseFunction
from ..machines.machine import serial_machine

__all__ = ["serial_envelope", "serial_envelope_cost",
           "serial_closest_sequence", "serial_work_units"]


def serial_envelope(fns: Sequence, family: CurveFamily, *, op: str = "min",
                    labels=None) -> PiecewiseFunction:
    """Atallah-style serial divide-and-conquer envelope (no charges)."""
    return envelope_serial(fns, family, op=op, labels=labels)


def serial_envelope_cost(fns: Sequence, family: CurveFamily, *,
                         op: str = "min", labels=None) -> tuple[PiecewiseFunction, float]:
    """Envelope plus its serial work count (one unit per slot per round).

    Running the parallel engine on a single-PE machine charges ``L`` units
    per lockstep round over ``L`` slots, giving the ``Theta(n log n)``-ish
    serial work curve benches compare against parallel time.
    """
    machine = serial_machine()
    env = envelope(machine, fns, family, op=op, labels=labels)
    return env, machine.metrics.time


def serial_closest_sequence(system: PointSystem, query: int = 0) -> PiecewiseFunction:
    """Serial chronological closest-point sequence (Theorem 4.1 oracle)."""
    return closest_point_sequence(None, system, query)


def serial_work_units(n: int, k: int = 1) -> float:
    """Measured serial work to build an envelope of ``n`` random k-curves."""
    import numpy as np

    from ..kinetics.polynomial import Polynomial

    rng = np.random.default_rng(0)
    fns = [Polynomial(rng.uniform(-10, 10, k + 1)) for _ in range(n)]
    _, cost = serial_envelope_cost(fns, PolynomialFamily(k))
    return cost
