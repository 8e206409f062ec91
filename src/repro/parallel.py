"""Process-parallel campaign engine.

Oracle campaigns and report generation are embarrassingly parallel:
hundreds of independent instances, each a pure function of its seed or its
parameters.  This module is the one shared driver behind every ``--jobs N``
flag (``python -m repro.verify``, ``python -m repro.report``):

* **deterministic inputs** — work items carry their own seeds/parameters;
  nothing is derived from worker identity, so the computation a worker
  performs is independent of *which* worker performs it;
* **chunked work queues** — items are grouped into contiguous chunks and
  submitted to a :class:`concurrent.futures.ProcessPoolExecutor`, keeping
  per-task pickling overhead amortised while still load-balancing across
  stragglers;
* **order-independent merging** — results are reassembled by item index,
  so the output list is identical for every jobs value and every
  completion order.  ``--jobs`` can change only *wall-clock*, never a
  result (the determinism contract of ``docs/verification.md``).

``jobs <= 1`` (or a single item) short-circuits to a plain in-process loop
with zero multiprocessing machinery, so serial behaviour is exactly the
pre-engine behaviour.  Worker functions must be module-level (picklable);
:func:`parallel_map` raises the usual pickling errors eagerly rather than
degrading silently — a campaign that cannot parallelise should say so.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence

__all__ = ["resolve_jobs", "chunk_indices", "parallel_map"]


def resolve_jobs(jobs) -> int:
    """Normalise a ``--jobs`` value to a worker count.

    ``None`` and ``1`` mean serial; ``"auto"``, ``0`` and negative values
    mean one worker per host core (the ``xargs -P0`` convention).
    Anything else is taken literally (it is legal, if rarely useful, to
    exceed the core count).
    """
    if jobs is None or jobs == 1:
        return 1
    if jobs == "auto" or int(jobs) <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def chunk_indices(n_items: int, jobs: int, chunk_size: int | None = None):
    """Yield ``(start, stop)`` chunk bounds covering ``range(n_items)``.

    The default chunk size aims at ~4 chunks per worker so early-finishing
    workers can steal load, while keeping chunks large enough that the
    per-chunk submission cost stays negligible.
    """
    if chunk_size is None:
        chunk_size = max(1, n_items // (jobs * 4) or 1)
    for start in range(0, n_items, chunk_size):
        yield start, min(start + chunk_size, n_items)


def _run_chunk(fn: Callable, items: Sequence) -> list:
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable,
    items: Iterable,
    *,
    jobs=1,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list:
    """``[fn(x) for x in items]`` across processes, deterministically.

    Returns results in item order regardless of completion order.  ``fn``
    must be picklable (module-level) when ``jobs > 1``; ``progress`` is
    called with ``(done_items, total_items)`` after each finished chunk.
    """
    items = list(items)
    total = len(items)
    n_workers = resolve_jobs(jobs)
    if n_workers <= 1 or total <= 1:
        out = []
        for i, item in enumerate(items):
            out.append(fn(item))
            if progress:
                progress(i + 1, total)
        return out

    bounds = list(chunk_indices(total, n_workers, chunk_size))
    results: list = [None] * total
    done = 0
    with ProcessPoolExecutor(max_workers=min(n_workers, len(bounds))) as pool:
        futures = {
            pool.submit(_run_chunk, fn, items[start:stop]): (start, stop)
            for start, stop in bounds
        }
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                start, stop = futures[fut]
                results[start:stop] = fut.result()
                done += stop - start
                if progress:
                    progress(done, total)
    return results
