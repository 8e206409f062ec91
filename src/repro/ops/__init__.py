"""Data movement operations of Section 2.6 (Table 1).

Every operation takes a :class:`~repro.machines.machine.Machine` first and
charges simulated parallel time as it runs; the asymptotics of Table 1
emerge from the topology's per-round costs.
"""

from .bitonic import bitonic_merge, bitonic_sort, compare_exchange_round
from .concurrent import concurrent_read, concurrent_write, interval_locate
from .plans import (
    EXECUTORS,
    MovementPlan,
    clear_plan_cache,
    get_executor,
    plan_cache_stats,
    set_executor,
)
from .vexec import lower_keys, vexec_stats
from .route import pack, permute, unpack_lists
from .scan import (
    broadcast,
    fill_backward,
    fill_forward,
    parallel_prefix,
    parallel_suffix,
    semigroup,
)

__all__ = [
    "bitonic_merge", "bitonic_sort", "compare_exchange_round",
    "concurrent_read", "concurrent_write", "interval_locate",
    "pack", "permute", "unpack_lists",
    "broadcast", "fill_backward", "fill_forward",
    "parallel_prefix", "parallel_suffix", "semigroup",
    "MovementPlan", "EXECUTORS", "clear_plan_cache",
    "get_executor", "set_executor", "plan_cache_stats",
    "lower_keys", "vexec_stats",
]
