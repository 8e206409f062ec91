"""Unit tests for the batching planner and the sharded result cache.

The planner half pins the deterministic grouping contract (first-arrival
unit order, in-unit arrival order, dedupe accounting, max-batch splits,
the unbatched degenerate mode).  The cache half extends the bounded-cache
discipline of ``tests/machines/test_cache_bounds.py`` to the serving
layer: per-shard caps under adversarial streams, exact hit/miss/eviction
reconciliation, and the recompute-bit-identity guarantee for evicted
entries.
"""

import json
from types import SimpleNamespace

import pytest

from repro.service import ShardedResultCache, plan_batches, request, run_key
from repro.service.model import run_driver, shard_of
from repro.trace.registry import registry_snapshot

pytestmark = pytest.mark.service


def pend(req):
    return SimpleNamespace(request=req)


def req_seeded(seed, **kw):
    return request("steady_hull", kind="random", seed=seed, n=5, **kw)


def plan(reqs, **kw):
    kw.setdefault("machine_size", 64)
    kw.setdefault("n_shards", 4)
    return plan_batches([pend(r) for r in reqs], **kw)


class TestPlanner:
    def test_same_run_key_collapses_into_one_unit(self):
        full = request("envelope", kind="random", seed=0, n=4, op="min")
        at = request("envelope", kind="random", seed=0, n=4, op="min",
                     q="value_at", t=0.5)
        units = plan([full, at, full])
        assert len(units) == 1
        assert units[0].size == 3
        # only the exact duplicate of `full` is a dedupe hit
        assert units[0].dedup_hits == 1

    def test_run_parameters_split_units(self):
        a = request("envelope", kind="random", seed=0, n=4, op="min")
        b = request("envelope", kind="random", seed=0, n=4, op="max")
        units = plan([a, b, a, b])
        assert [u.size for u in units] == [2, 2]
        assert units[0].key != units[1].key

    def test_units_emitted_in_first_arrival_order(self):
        reqs = [req_seeded(2), req_seeded(0), req_seeded(1), req_seeded(0)]
        units = plan(reqs)
        seeds = [u.waiters[0].request.family.seed for u in units]
        assert seeds == [2, 0, 1]

    def test_waiters_keep_arrival_order(self):
        at = [request("steady_hull", kind="random", seed=0, n=5,
                      q="is_extreme", i=i) for i in range(4)]
        units = plan([at[2], at[0], at[3], at[1]])
        assert len(units) == 1
        order = [dict(p.request.params)["i"] for p in units[0].waiters]
        assert order == [2, 0, 3, 1]

    def test_max_batch_splits_oversized_units(self):
        reqs = [req_seeded(0)] * 7
        units = plan(reqs, max_batch=3)
        assert [u.size for u in units] == [3, 3, 1]
        assert len({u.key for u in units}) == 1

    def test_unbatched_mode_is_one_unit_per_request(self):
        reqs = [req_seeded(0), req_seeded(0), req_seeded(1)]
        units = plan(reqs, batching=False)
        assert [u.size for u in units] == [1, 1, 1]
        assert all(u.dedup_hits == 0 for u in units)

    def test_unit_shard_matches_shard_of(self):
        units = plan([req_seeded(s) for s in range(10)], n_shards=3)
        for unit in units:
            assert unit.shard == shard_of(unit.key, 3)

    def test_planning_is_deterministic(self):
        reqs = [req_seeded(s % 4) for s in range(12)]
        a = plan(reqs, max_batch=2)
        b = plan(reqs, max_batch=2)
        assert [(u.key, u.shard, u.size, u.dedup_hits) for u in a] == \
            [(u.key, u.shard, u.size, u.dedup_hits) for u in b]


def key_of(seed, machine_size=64):
    return run_key(req_seeded(seed), machine_size)


class TestShardedResultCache:
    def test_roundtrip_and_counters(self):
        cache = ShardedResultCache(8, shards=2)
        k = key_of(0)
        assert cache.get(k) is None
        cache.put(k, {"result": 1})
        assert cache.get(k) == {"result": 1}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_get_refreshes_recency(self):
        cache = ShardedResultCache(2, shards=1)
        k0, k1, k2 = key_of(0), key_of(1), key_of(2)
        cache.put(k0, {"v": 0})
        cache.put(k1, {"v": 1})
        assert cache.get(k0) == {"v": 0}   # k0 becomes most-recent
        cache.put(k2, {"v": 2})            # evicts LRU = k1
        assert cache.get(k1) is None
        assert cache.get(k0) == {"v": 0}
        assert cache.evictions == 1

    def test_per_shard_bound_under_adversarial_stream(self):
        cache = ShardedResultCache(8, shards=4)
        for seed in range(100):
            cache.put(key_of(seed), {"seed": seed})
        assert all(n <= cache.per_shard for n in cache.shard_sizes())
        assert cache.size() <= cache.per_shard * cache.n_shards

    def test_eviction_counters_reconcile(self):
        cache = ShardedResultCache(6, shards=3)
        inserted = 0
        for seed in range(50):
            cache.put(key_of(seed), {"seed": seed})
            inserted += 1
        assert cache.size() == inserted - cache.evictions
        for seed in range(50):
            cache.get(key_of(seed))
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["hits"] == cache.size()
        assert stats["misses"] == 50 - cache.size()

    def test_zero_capacity_disables_the_cache(self):
        cache = ShardedResultCache(0, shards=4)
        k = key_of(0)
        cache.put(k, {"v": 1})
        assert cache.get(k) is None
        assert cache.size() == 0 and cache.per_shard == 0
        assert cache.stats()["hit_rate"] == 0.0

    def test_clear_empties_every_shard(self):
        cache = ShardedResultCache(16, shards=4)
        for seed in range(12):
            cache.put(key_of(seed), {"seed": seed})
        cache.clear()
        assert cache.size() == 0
        assert cache.shard_sizes() == [0, 0, 0, 0]

    def test_reput_same_key_does_not_evict_others(self):
        cache = ShardedResultCache(2, shards=1)
        k0, k1 = key_of(0), key_of(1)
        cache.put(k0, {"v": 0})
        cache.put(k1, {"v": 1})
        cache.put(k0, {"v": 0})   # refresh, not a growth
        assert cache.evictions == 0
        assert cache.size() == 2

    def test_evicted_entries_recompute_bit_identically(self):
        # The cache is an optimisation: losing an entry to eviction must
        # be invisible — the recomputed run is byte-equal to the evicted
        # one (pure driver + JSON-plain encoding).
        cache = ShardedResultCache(1, shards=1)
        req = req_seeded(3)
        entry = run_driver(req.algorithm, req.family, req.run_params(),
                           req.backend, 64)
        k = run_key(req, 64)
        cache.put(k, entry)
        cache.put(key_of(99), {"v": "displacer"})   # evicts the entry
        assert cache.get(k) is None
        recomputed = run_driver(req.algorithm, req.family,
                                req.run_params(), req.backend, 64)
        assert json.dumps(recomputed, sort_keys=True) == \
            json.dumps(entry, sort_keys=True)

    def test_instance_counters_are_not_mirrored_to_registry(self):
        cache = ShardedResultCache(1, shards=1)
        cache.put(key_of(0), {"v": 0})
        cache.get(key_of(0))
        cache.put(key_of(1), {"v": 1})
        cache.invalidate(key_of(1))
        stats = cache.stats()
        assert (stats["hits"], stats["evictions"],
                stats["invalidations"]) == (1, 1, 1)
        assert [k for k in registry_snapshot()
                if k.startswith("service.")] == []

    def test_capacity_smaller_than_shards_still_holds_one_each(self):
        cache = ShardedResultCache(2, shards=4)
        assert cache.per_shard == 1
        for seed in range(20):
            cache.put(key_of(seed), {"seed": seed})
        assert all(n <= 1 for n in cache.shard_sizes())
