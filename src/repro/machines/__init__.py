"""Simulated parallel machines: meshes, hypercubes, PRAM, serial (Section 2)."""

from .indexing import (
    IndexScheme,
    SCHEMES,
    adjacency_fraction,
    gray_code,
    gray_code_inverse,
    is_recursively_decomposable,
    max_consecutive_distance,
    proximity,
    row_major,
    shuffled_row_major,
    snake_like,
)
from .machine import (
    Machine,
    MachineGroup,
    ccc_machine,
    hypercube_machine,
    mesh_machine,
    pram_machine,
    serial_machine,
    shuffle_exchange_machine,
)
from .machine import clear_machine_caches
from .metrics import Metrics


def clear_caches() -> None:
    """Empty every cross-instance memo in the simulator.

    Clears the charge-parameter and doubling-bit memos of
    :mod:`repro.machines.machine` and the compiled movement-plan cache of
    :mod:`repro.ops.plans` (imported lazily: ``ops`` depends on
    ``machines``, not the other way round).  The test suite calls this
    between tests so a stale or mis-keyed cache entry surfaces as a
    failure in the test that created it instead of leaking silently.
    """
    clear_machine_caches()
    from ..ops.plans import clear_plan_cache

    clear_plan_cache()
from .topology import (
    CCCTopology,
    HypercubeTopology,
    MeshTopology,
    PRAMTopology,
    SerialTopology,
    ShuffleExchangeTopology,
    Topology,
)

__all__ = [
    "IndexScheme", "SCHEMES", "adjacency_fraction", "gray_code",
    "gray_code_inverse", "is_recursively_decomposable",
    "max_consecutive_distance", "proximity", "row_major",
    "shuffled_row_major", "snake_like",
    "Machine", "MachineGroup", "ccc_machine", "hypercube_machine",
    "mesh_machine", "pram_machine", "serial_machine",
    "shuffle_exchange_machine", "Metrics",
    "clear_caches", "clear_machine_caches",
    "CCCTopology", "HypercubeTopology", "MeshTopology", "PRAMTopology",
    "SerialTopology", "ShuffleExchangeTopology", "Topology",
]
