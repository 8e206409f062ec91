"""Shard worker pools and the (picklable) batch execution entry point.

Each shard owns a single-worker executor — a thread for in-process
serving, a subprocess for isolation — so runs for one family are
serialized per shard while distinct shards execute concurrently.  The
worker entry point :func:`execute_batch` follows the campaign engine's
fork-safety contract (RPR005): it is a module-level function of its
payload alone, the payload is plain JSON (family *coordinates*, never
live objects — the worker rebuilds the family deterministically), and the
result dict is a pure function of the payload for every pool mode.

Fault injection rides the payload: the server plants ``fault`` markers
(consumed per attempt) so tests can kill a worker mid-batch or make it
raise, and assert the retry/degrade behaviour without monkeypatching
worker internals.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from time import perf_counter

from .model import FamilySpec, QueryRequest, direct_response, run_driver

__all__ = ["execute_batch", "direct_item", "ShardPools", "WORKER_MODES"]

WORKER_MODES = ("thread", "process")

def execute_batch(payload: dict) -> dict:
    """Run one batch unit's simulated run; returns the run entry.

    ``payload`` carries the run coordinates (algorithm, family spec,
    backend, machine size, run parameters) and an optional injected
    ``fault``.  The returned entry is JSON-plain:
    ``{"result", "sim", "sim_time", "wall"}``.
    """
    fault = payload.get("fault")
    if fault == "raise":
        raise RuntimeError("injected worker fault (service test)")
    if fault == "die":  # pragma: no cover - kills the worker process
        os._exit(23)
    t0 = perf_counter()
    family = FamilySpec.from_dict(payload["family"])
    entry = run_driver(payload["algorithm"], family, payload["run_params"],
                       payload["backend"], payload["machine_size"])
    entry["wall"] = perf_counter() - t0
    return entry


def direct_item(item: tuple) -> dict:
    """Campaign-engine worker: one per-query driver run (the oracle side).

    ``item`` is ``(request, machine_size)``; used with
    :func:`repro.parallel.parallel_map` by the load harness and the
    equivalence tests to compute direct baselines at scale with the
    engine's deterministic merge-by-index.
    """
    req, machine_size = item
    assert isinstance(req, QueryRequest)
    return direct_response(req, machine_size=machine_size)


class ShardPools:
    """One single-worker executor per shard, restartable after faults.

    ``mode`` is ``"thread"`` (in-process; shares the process's caches —
    the test/default mode) or ``"process"`` (isolation;
    worker death surfaces as :class:`concurrent.futures.BrokenExecutor`
    and :meth:`restart` replaces the pool).  Pools are created lazily so
    a service with idle shards spawns nothing for them.
    """

    def __init__(self, n_shards: int, mode: str = "thread") -> None:
        if mode not in WORKER_MODES:
            raise ValueError(f"unknown worker mode {mode!r}; "
                             f"have {WORKER_MODES}")
        self.n_shards = max(1, int(n_shards))
        self.mode = mode
        self._pools: list[Executor | None] = [None] * self.n_shards
        self.restarts = 0

    def _make_pool(self) -> Executor:
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=1)
        return ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="repro-service")

    def pool(self, shard: int) -> Executor:
        pool = self._pools[shard]
        if pool is None:
            pool = self._pools[shard] = self._make_pool()
        return pool

    def restart(self, shard: int) -> None:
        """Replace a (possibly broken) shard pool with a fresh one."""
        pool = self._pools[shard]
        self._pools[shard] = None
        self.restarts += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        for i, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
                self._pools[i] = None
