"""Shared fixtures for the test suite."""

import pytest

from repro.core.envelope import set_fast_combine
from repro.machines import clear_caches
from repro.ops.plans import set_executor


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Empty the cross-instance simulator memos before every test.

    The charge/doubling memos (``repro.machines.machine``) and the
    compiled movement-plan cache (``repro.ops.plans``) are process-wide by
    design.  Clearing them per test means a mis-keyed or stale entry fails
    the test that created it, instead of being masked by a correct entry
    some earlier test happened to populate (recompiling is microseconds).
    """
    clear_caches()
    yield


@pytest.fixture(params=[True, False], ids=["fast", "array"])
def fast_combine_mode(request):
    """Run the decorated tests under both envelope execution strategies.

    The host-side fast combine path (PR 1) must be output- and
    simulated-charge-identical to the array machinery; classes marked with
    ``@pytest.mark.usefixtures("fast_combine_mode")`` execute once per mode
    so neither path rots unexercised.
    """
    prev = set_fast_combine(request.param)
    try:
        yield request.param
    finally:
        set_fast_combine(prev)


@pytest.fixture(params=["vectorized", "reference"],
                ids=["vectorized", "interpreted"])
def plan_mode(request):
    """Run the decorated tests under both data-movement executors.

    Same contract as ``fast_combine_mode``: the vectorized executor
    (compiled plans over lowered key columns) must be output- and
    simulated-charge-identical to the interpreted per-round path, so tests
    marked ``@pytest.mark.usefixtures("plan_mode")`` run once per
    executor.
    """
    prev = set_executor(request.param)
    try:
        yield request.param
    finally:
        set_executor(prev)
