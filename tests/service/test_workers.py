"""Worker pools: one worker thread in thread mode, one pool per shard in
process mode.

The simulated runs are pure Python, so in thread mode a second worker
thread could only contend for the GIL.  Every shard therefore shares one
single-worker thread pool; shards still partition the cache and the batch
plan.  Process mode keeps one isolated, restartable pool per shard.
"""

import threading

import pytest

import repro.service.server as server
from repro.service import QueryService, ShardPools, request
from repro.service.model import run_key, shard_of

from .conftest import run_async

pytestmark = pytest.mark.service

MACHINE_SIZE = 16


def spread_stream():
    """Requests of several families, landing on at least two of 3 shards."""
    reqs = [request("envelope", kind="random", seed=s, n=5, op="min")
            for s in range(6)]
    reqs += [request("steady_hull", kind="random", seed=s, n=5)
             for s in range(3)]
    shards = {shard_of(run_key(r, MACHINE_SIZE), 3) for r in reqs}
    assert len(shards) >= 2
    return reqs


class TestThreadMode:
    def test_every_run_is_on_one_thread_off_the_event_loop(self, monkeypatch):
        idents = []
        real = server.execute_batch

        def recording(payload):
            idents.append(threading.get_ident())
            return real(payload)

        monkeypatch.setattr(server, "execute_batch", recording)
        reqs = spread_stream()

        async def go():
            async with QueryService(shards=3, workers="thread",
                                    machine_size=MACHINE_SIZE) as svc:
                resps = await svc.submit_many(reqs)
                workers = [t for t in threading.enumerate()
                           if t.name.startswith("repro-service")]
            return resps, threading.get_ident(), workers

        resps, loop_ident, workers = run_async(go())
        assert len(resps) == len(reqs)
        assert len(idents) == len({run_key(r, MACHINE_SIZE) for r in reqs})
        assert len(set(idents)) == 1
        assert idents[0] != loop_ident
        assert len(workers) == 1

    def test_shards_share_one_pool(self):
        pools = ShardPools(3, "thread")
        try:
            assert pools.pool(0) is pools.pool(1) is pools.pool(2)
        finally:
            pools.shutdown()

    def test_shared_thread_pool_is_never_restarted(self):
        pools = ShardPools(2, "thread")
        try:
            shared = pools.pool(0)
            with pytest.raises(RuntimeError):
                pools.restart(1)
            assert pools.pool(1) is shared
            assert pools.restarts == 0
        finally:
            pools.shutdown()


class TestProcessMode:
    def test_each_shard_has_its_own_pool(self):
        pools = ShardPools(2, "process")
        try:
            assert pools.pool(0) is not pools.pool(1)
            assert pools.pool(0) is pools.pool(0)
        finally:
            pools.shutdown()
