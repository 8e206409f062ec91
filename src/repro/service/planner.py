"""The batching planner: pending requests -> deterministic batch units.

Compatible queries — same family, algorithm, machine model, and run
parameters, i.e. the same :func:`repro.service.model.run_key` — collapse
into one *batch unit* backed by a single simulated run.  Planning is a
pure function of the pending list's arrival order:

* units are emitted in first-arrival order of their run key, and waiters
  inside a unit keep arrival order — the same merge-by-index discipline
  as :mod:`repro.parallel` (results reattach to requests by position,
  never by completion order);
* duplicate requests inside a unit (identical full request key) are
  *dedupe hits*: they ride the unit without widening it;
* ``max_batch`` splits oversized units so one popular family cannot
  head-of-line-block a flush;
* ``batching=False`` degrades to one unit per request (no sharing, no
  dedupe) — the unbatched reference the property tests compare against.

The planner never runs driver code; it only groups and keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .model import QueryRequest, run_key, shard_of

__all__ = ["BatchUnit", "plan_batches"]


@dataclass
class BatchUnit:
    """One simulated run and the pending requests it will answer."""

    key: tuple
    shard: int
    algorithm: str
    waiters: list[Any] = field(default_factory=list)  # pendings, arrival order
    dedup_hits: int = 0
    #: Batch correlation id, minted by the server at dispatch time and
    #: propagated into events, worker payloads, and the batch span.
    bid: str = ""
    #: Distinct full request keys seen, for dedupe accounting.
    _seen: set[tuple] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.waiters)

    def add(self, pending: Any) -> None:
        rk = pending.request.key()
        if rk in self._seen:
            self.dedup_hits += 1
        else:
            self._seen.add(rk)
        self.waiters.append(pending)


def plan_batches(pendings: Iterable[Any], *, machine_size: int,
                 n_shards: int, batching: bool = True,
                 max_batch: int = 64) -> list[BatchUnit]:
    """Group pending requests into :class:`BatchUnit` lists.

    ``pendings`` is an iterable of objects with a ``.request``
    :class:`QueryRequest` attribute, in arrival order.  The plan is a
    deterministic function of that order and the configuration — no
    clocks, no randomness — so replaying the same arrivals plans the same
    batches.
    """
    max_batch = max(1, int(max_batch))
    units: list[BatchUnit] = []
    open_units: dict[tuple, BatchUnit] = {}
    for pending in pendings:
        req: QueryRequest = pending.request
        key = run_key(req, machine_size)
        unit = open_units.get(key) if batching else None
        if unit is None or unit.size >= max_batch:
            unit = BatchUnit(key=key, shard=shard_of(key, n_shards),
                             algorithm=req.algorithm)
            units.append(unit)
            if batching:
                open_units[key] = unit
        unit.add(pending)
    return units
