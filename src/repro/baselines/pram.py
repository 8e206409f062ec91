"""CREW PRAM baseline and direct-simulation costing (Sections 1 and 6).

The paper's headline comparison: the Chandran–Mount CREW PRAM algorithm
describes the envelope in ``O(log n)`` steps, but *simulating* a PRAM step
on a distributed-memory machine costs one concurrent-read plus one
concurrent-write round — ``Theta(sqrt(n))`` on the mesh and
``Theta(log^2 n)`` on the bitonic hypercube.  Direct simulation therefore
costs ``Theta(sqrt(n) log n)`` / ``Theta(log^3 n)``, worse than the native
``Theta(lambda^{1/2}(n,s))`` / ``Theta(log^2 n)`` algorithms of Section 3.

This module provides both sides of that comparison:

* :func:`pram_envelope` — the envelope engine run on the PRAM cost model
  (unit-cost exchanges), measuring its parallel step count;
* :func:`chandran_mount_steps` — the idealised ``c * log2(n)`` step model
  of the Chandran–Mount algorithm (we model its step count rather than
  re-implementing its pointer machinery; any *larger* count only weakens
  the PRAM side, making the paper's conclusion easier — using the idealised
  count reproduces the claim in its strongest form);
* :func:`crcw_round_cost` — the *measured* cost of one concurrent-read +
  concurrent-write on a given host machine, taken from
  :mod:`repro.ops.concurrent`;
* :func:`simulation_cost` — steps x per-step cost, the paper's accounting.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.envelope import envelope
from ..core.family import CurveFamily
from ..errors import OperationContractError
from ..kinetics.piecewise import PiecewiseFunction
from ..machines.machine import Machine, MachineGroup, pram_machine
from ..ops import concurrent_read, concurrent_write
from ..ops._common import next_pow2

__all__ = ["pram_envelope", "chandran_mount_steps", "crcw_round_cost",
           "simulation_cost"]


def pram_envelope(fns: Sequence, family: CurveFamily, *, op: str = "min",
                  labels=None) -> tuple[PiecewiseFunction, float]:
    """The Section 3 envelope on the CREW PRAM cost model.

    Returns ``(envelope, parallel_steps)``.  Each data movement round costs
    one PRAM step, so the measured count is ``Theta(log^2 n)`` — an upper
    bound for the Chandran–Mount step count used by
    :func:`simulation_cost`'s conservative variant.
    """
    machine = pram_machine(next_pow2(max(2, len(list(fns)))))
    env = envelope(machine, fns, family, op=op, labels=labels)
    return env, machine.metrics.time


def chandran_mount_steps(n: int, c: float = 4.0) -> float:
    """Idealised Chandran–Mount step count: ``c * log2 n`` PRAM steps."""
    if n < 2:
        return c
    return c * math.log2(n)


def crcw_round_cost(machine: Machine, n: int) -> float:
    """Measured cost of one CR + one CW round of size ``n`` on ``machine``.

    This is the per-step price of direct PRAM simulation on the host:
    ``Theta(sqrt(n))`` for the mesh, ``Theta(log^2 n)`` for the bitonic
    hypercube — exactly the figures quoted in Section 6.  A
    :class:`~repro.machines.machine.MachineGroup` has no single total and
    raises :class:`~repro.errors.OperationContractError`.
    """
    if isinstance(machine, MachineGroup):
        raise OperationContractError(
            "crcw_round_cost reads one machine's total; call it per member")
    before = machine.metrics.time
    keys = np.arange(n)
    vals = np.arange(n).astype(object)
    queries = np.arange(n)[::-1]
    concurrent_read(machine, keys, vals, queries)
    concurrent_write(machine, keys, queries, vals, lambda a, b: a)
    return machine.metrics.time - before


def simulation_cost(machine: Machine, n: int, *,
                    pram_steps: float | None = None) -> float:
    """Total cost of simulating the PRAM envelope on ``machine``.

    ``pram_steps`` defaults to the idealised Chandran–Mount count; pass the
    measured count from :func:`pram_envelope` for the conservative variant.
    """
    steps = chandran_mount_steps(n) if pram_steps is None else pram_steps
    return steps * crcw_round_cost(machine, n)
