"""Fault behaviour: structured degradation, never hangs or poisoning.

Worker faults (raised exceptions, killed worker processes) must surface
as structured :class:`ServiceError`\\ s after bounded retries while the
service keeps serving; cancelled clients must not poison the batches
they rode; bad requests must fail at submit time; shutdown must fail
leftover waiters instead of hanging them.
"""

import asyncio

import pytest

from repro.service import QueryService, ServiceError, request

from .conftest import run_async

pytestmark = pytest.mark.service


def req_a():
    return request("steady_hull", kind="random", seed=1, n=5)


def req_b():
    return request("hull_membership", kind="random", seed=2, n=5)


class TestSubmitValidation:
    def test_bad_request_fails_at_submit_with_context(self):
        bad = request("envelope", kind="random", seed=0, n=4, op="median")

        async def go():
            async with QueryService() as svc:
                with pytest.raises(ServiceError) as ei:
                    await svc.submit(bad)
                return ei.value, svc.counters

        err, stats = run_async(go())
        assert err.code == "bad_request"
        assert "op" in err.detail
        assert err.context["request"]["algorithm"] == "envelope"
        assert stats.requests == 0  # rejected before entering the pipeline

    def test_submit_before_start_is_structured(self):
        svc = QueryService()

        async def go():
            with pytest.raises(ServiceError) as ei:
                await svc.submit(req_a())
            return ei.value

        assert run_async(go()).code == "not_started"

    def test_constructor_rejects_unknown_executor(self):
        # The executor is process-wide (set at the CLI edge), never a
        # per-service knob.
        with pytest.raises(TypeError, match="executor"):
            QueryService(executor="vectorized")

    def test_inject_fault_validates_mode_and_worker_kind(self):
        svc = QueryService()
        with pytest.raises(ValueError, match="fault mode"):
            svc.inject_fault("segfault")
        with pytest.raises(ValueError, match="process workers"):
            svc.inject_fault("die")


class TestWorkerFaults:
    def test_raised_fault_is_retried_transparently(self):
        async def go():
            async with QueryService(retries=1) as svc:
                svc.inject_fault("raise")
                resp = await svc.submit(req_a())
                return resp, svc.counters

        resp, stats = run_async(go())
        assert resp.meta["attempts"] == 2
        assert stats.retries == 1 and stats.errors == 0
        assert resp.payload["answer"]  # a real answer, not a placeholder

    def test_fault_past_retry_budget_is_a_structured_error(self):
        async def go():
            async with QueryService(retries=1) as svc:
                svc.inject_fault("raise", count=2)
                with pytest.raises(ServiceError) as ei:
                    await svc.submit(req_a())
                # the service keeps serving after the failed batch
                ok = await svc.submit(req_b())
                return ei.value, ok, svc.counters

        err, ok, stats = run_async(go())
        assert err.code == "worker_failed"
        assert err.context["attempts"] == 2
        assert err.context["batch_size"] == 1
        assert "shard" in err.context
        assert ok.payload["algorithm"] == "hull_membership"
        assert stats.errors == 1 and stats.responses == 1

    def test_zero_retries_fails_on_first_fault(self):
        async def go():
            async with QueryService(retries=0) as svc:
                svc.inject_fault("raise")
                with pytest.raises(ServiceError) as ei:
                    await svc.submit(req_a())
                return ei.value

        err = run_async(go())
        assert err.code == "worker_failed"
        assert err.context["attempts"] == 1

    def test_failed_batch_fails_all_its_waiters(self):
        async def go():
            async with QueryService(retries=0, batch_window=0.02) as svc:
                svc.inject_fault("raise")
                results = await asyncio.gather(
                    svc.submit(req_a()), svc.submit(req_a()),
                    return_exceptions=True)
                return results, svc.counters

        results, stats = run_async(go())
        assert all(isinstance(r, ServiceError) for r in results)
        assert all(r.code == "worker_failed" for r in results)
        assert results[0].context["batch_size"] == 2
        assert stats.errors == 1  # one failed *run*, not one per waiter

    def test_fault_does_not_linger_after_consumption(self):
        async def go():
            async with QueryService(retries=1) as svc:
                svc.inject_fault("raise")
                first = await svc.submit(req_a())
                second = await svc.submit(req_b())
                return first, second

        first, second = run_async(go())
        assert first.meta["attempts"] == 2
        assert second.meta["attempts"] == 1


class TestCancelledClients:
    def test_cancelled_client_does_not_poison_its_batch(self):
        async def go():
            async with QueryService(batch_window=0.05) as svc:
                keep = asyncio.create_task(svc.submit(req_a()))
                drop = asyncio.create_task(svc.submit(req_a()))
                await asyncio.sleep(0.01)   # enqueue both, then cancel one
                drop.cancel()
                resp = await keep
                with pytest.raises(asyncio.CancelledError):
                    await drop
                return resp, svc.counters

        resp, stats = run_async(go())
        assert resp.payload["algorithm"] == "steady_hull"
        assert stats.cancelled == 1
        assert stats.responses == 1
        assert stats.responses + stats.cancelled == stats.requests

    def test_cancelled_client_does_not_abort_the_shared_run(self):
        # The survivor still gets a cold (non-error) response even when
        # the cancel lands while the shared run is already in flight.
        async def go():
            async with QueryService(batch_window=0.02) as svc:
                keep = asyncio.create_task(svc.submit(req_b()))
                drop = asyncio.create_task(svc.submit(req_b()))
                await asyncio.sleep(0.03)   # batch dispatched by now
                drop.cancel()
                resp = await keep
                return resp, svc.counters

        resp, stats = run_async(go())
        assert resp.payload["algorithm"] == "hull_membership"
        assert stats.cancelled + stats.responses == stats.requests


class TestShutdown:
    def test_stop_fails_pending_requests_instead_of_hanging(self):
        async def go():
            svc = await QueryService(batch_window=5.0).start()
            task = asyncio.create_task(svc.submit(req_a()))
            await asyncio.sleep(0.01)   # parked in the batch window
            await svc.stop()
            with pytest.raises(ServiceError) as ei:
                await task
            return ei.value

        assert run_async(go()).code == "shutdown"

    def test_stop_is_idempotent_and_restartable(self):
        async def go():
            svc = QueryService()
            await svc.start()
            await svc.stop()
            await svc.stop()   # second stop is a no-op
            await svc.start()  # a stopped service can start again
            resp = await svc.submit(req_a())
            await svc.stop()
            return resp

        assert run_async(go()).payload["algorithm"] == "steady_hull"


class TestProcessWorkerDeath:
    """Worker-process death (the fault thread pools cannot survive)."""

    def test_dead_worker_is_retried_on_a_fresh_pool(self):
        async def go():
            async with QueryService(shards=1, workers="process",
                                    retries=1) as svc:
                svc.inject_fault("die")
                resp = await svc.submit(req_a())
                return resp, svc.stats()

        resp, stats = run_async(go())
        assert resp.meta["attempts"] == 2
        assert stats["pools"]["restarts"] >= 1
        assert stats["counters"]["retries"] == 1

    def test_repeated_death_degrades_to_structured_error_not_hang(self):
        async def go():
            async with QueryService(shards=1, workers="process",
                                    retries=1) as svc:
                svc.inject_fault("die", count=2)
                with pytest.raises(ServiceError) as ei:
                    await asyncio.wait_for(svc.submit(req_a()), timeout=60)
                # the restarted pool keeps serving afterwards
                ok = await svc.submit(req_b())
                return ei.value, ok

        err, ok = run_async(go())
        assert err.code == "worker_failed"
        assert ok.payload["algorithm"] == "hull_membership"
