"""Sharded, bounded, LRU result cache for the query service.

Repeat traffic dominates a zipf-skewed query mix, so finished run entries
(encoded driver results plus their simulated charges — see
:func:`repro.service.model.run_driver`) are cached under their run key.
The cache follows the repo's cache-hygiene discipline (RPR004, enforced
for module-level memos and mirrored here for instance state):

* **bounded** — per-shard capacity with LRU eviction; an adversarial or
  merely diverse stream cannot grow a shard past its cap;
* **clearable** — :meth:`ShardedResultCache.clear` empties every shard
  (and the service calls it on shutdown);
* **accounted** — hits/misses/evictions/invalidations are exact
  instance counters, reported by :meth:`ShardedResultCache.stats` (the
  ``cache`` section of ``QueryService.stats()``) and nowhere else.

Entries are immutable once inserted (the service never mutates a cached
run), so a hit returns the same object a cold run produced — byte-equal
responses fall out of that plus the deterministic payload encoding.
"""

from __future__ import annotations

import math

from .model import shard_of

__all__ = ["ShardedResultCache"]


class ShardedResultCache:
    """LRU dictionaries sharded by the deterministic family shard.

    ``capacity`` is the total entry budget, split evenly across
    ``shards`` (each shard holds at least one entry).  ``capacity <= 0``
    disables the cache: every ``get`` is a miss and ``put`` is a no-op,
    which is how the service runs cache-less without a second code path.
    """

    def __init__(self, capacity: int, shards: int = 4) -> None:
        self.capacity = int(capacity)
        self.n_shards = max(1, int(shards))
        self.per_shard = (
            0 if self.capacity <= 0
            else max(1, math.ceil(self.capacity / self.n_shards))
        )
        self._shards: list[dict] = [{} for _ in range(self.n_shards)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def _shard(self, key: tuple) -> dict:
        return self._shards[shard_of(key, self.n_shards)]

    def get(self, key: tuple) -> dict | None:
        """The cached entry for ``key`` (refreshing recency), or ``None``."""
        if self.per_shard == 0:
            self.misses += 1
            return None
        shard = self._shard(key)
        entry = shard.pop(key, None)
        if entry is None:
            self.misses += 1
            return None
        shard[key] = entry  # reinsert: most-recently-used position
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: dict) -> None:
        """Insert ``entry``, evicting the shard's LRU entries past the cap."""
        if self.per_shard == 0:
            return
        shard = self._shard(key)
        shard.pop(key, None)
        while len(shard) >= self.per_shard:
            oldest = next(iter(shard))
            del shard[oldest]
            self.evictions += 1
        shard[key] = entry

    def invalidate(self, key: tuple) -> bool:
        """Evict one entry by key (targeted invalidation, not aging).

        Returns True when an entry was actually removed.  Mutation
        traffic uses this to evict exactly the run keys a write
        affected — ``invalidations`` counts real removals only, so
        ``tests/service/test_mutations.py`` can pin the eviction set
        exactly (a mutation must never clear unrelated entries).
        """
        if self.per_shard == 0:
            return False
        removed = self._shard(key).pop(key, None) is not None
        if removed:
            self.invalidations += 1
        return removed

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    # ------------------------------------------------------------------
    def size(self) -> int:
        return sum(len(s) for s in self._shards)

    def shard_sizes(self) -> list[int]:
        return [len(s) for s in self._shards]

    def stats(self) -> dict:
        """Exact instance counters; ``hits + misses`` equals lookups."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "lookups": lookups,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "size": self.size(),
            "capacity": self.capacity,
            "shards": self.n_shards,
            "per_shard": self.per_shard,
        }
