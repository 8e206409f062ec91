"""Shard worker pools and the (picklable) batch execution entry point.

In process mode each shard owns a single-worker subprocess pool, so runs
for one family are serialized per shard while distinct shards execute
concurrently.  In thread mode every shard shares one single-worker
thread pool: the simulated runs are pure Python, and under the GIL a
second worker thread never runs beside the first — it only contends for
the interpreter (on a 2-core host, two worker threads cost 6.4-7.9 ms of
CPU per ``served_cold`` request against 5.0-5.7 ms for one).  Shards
still partition the cache and the batch plan in both modes.

The worker entry point :func:`execute_batch` follows the campaign
engine's fork-safety contract (RPR005): it is a module-level function of its
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
    """Single-worker executors for the shards, restartable after faults.

    ``mode`` is ``"thread"`` (in-process; shares the process's caches —
    the test/default mode) or ``"process"`` (isolation).  In thread mode
    every shard gets the same executor, so a service has one worker
    thread whatever its shard count and every run is serialized (a
    thread per shard would only contend for the GIL).  In process mode
    each shard has its own pool; worker death surfaces as
    :class:`concurrent.futures.BrokenExecutor` and :meth:`restart`
    replaces that shard's pool.  Pools are created lazily so a service
    with idle shards spawns nothing for them.
    """

    def __init__(self, n_shards: int, mode: str = "thread") -> None:
        if mode not in WORKER_MODES:
            raise ValueError(f"unknown worker mode {mode!r}; "
                             f"have {WORKER_MODES}")
        self.n_shards = max(1, int(n_shards))
        self.mode = mode
        n_pools = self.n_shards if mode == "process" else 1
        self._pools: list[Executor | None] = [None] * n_pools
        self.restarts = 0

    def _make_pool(self) -> Executor:
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=1)
        return ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="repro-service")

    def pool(self, shard: int) -> Executor:
        slot = shard if self.mode == "process" else 0
        pool = self._pools[slot]
        if pool is None:
            pool = self._pools[slot] = self._make_pool()
        return pool

    def restart(self, shard: int) -> None:
        """Replace a broken shard process pool with a fresh one.

        Only a process pool breaks.  The shared thread pool is never
        restarted: cancelling its queue would cancel other shards' runs.
        """
        if self.mode != "process":
            raise RuntimeError("only process pools are restarted")
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
