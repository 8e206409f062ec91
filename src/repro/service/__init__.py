"""Envelope-as-a-service: batched, cached, sharded query serving.

The serving layer (``docs/service.md``).  Clients submit
``(curve-family, query)`` requests to an asyncio :class:`QueryService`;
compatible queries (same family + algorithm + machine model) batch into
single simulated runs, families shard deterministically across worker
pools, and repeat traffic is served from a bounded sharded cache — with
the hard contract that none of it can change a response byte
(``docs/service.md``, enforced by ``tests/service/``).

Layout:

``model``    requests, mutations, run keys, encoded results, answers
``planner``  pending requests -> deterministic batch units
``cache``    sharded bounded LRU over finished run entries
``dynamic``  named incremental-envelope families (write traffic)
``workers``  per-shard pools + the picklable batch entry point
``server``   the asyncio front end (batching loop, retries, spans)
"""

from .cache import ShardedResultCache
from .dynamic import DynamicFamily, DynamicFamilyStore
from .model import (
    ALGORITHMS,
    BACKENDS,
    MUTATION_OPS,
    FamilySpec,
    MutationRequest,
    QueryRequest,
    QueryResponse,
    ServiceError,
    direct_response,
    dynamic_run_key,
    mutation,
    request,
    run_key,
    shard_of,
    validate_mutation,
    validate_request,
)
from .planner import BatchUnit, plan_batches
from .server import QueryService, ServiceStats
from .workers import ShardPools, direct_item, execute_batch

__all__ = [
    "ALGORITHMS", "BACKENDS", "MUTATION_OPS", "FamilySpec",
    "MutationRequest", "QueryRequest", "QueryResponse", "ServiceError",
    "QueryService", "ServiceStats", "ShardedResultCache", "ShardPools",
    "DynamicFamily", "DynamicFamilyStore", "BatchUnit", "plan_batches",
    "mutation", "request", "run_key", "dynamic_run_key", "shard_of",
    "direct_response", "direct_item", "execute_batch", "validate_mutation",
    "validate_request",
]
