"""Path policy: which invariants bind where in the tree.

Every rule scopes itself through a :class:`CheckPolicy` instead of
hard-coding paths, so the fixture tests (and any future monorepo layout)
can run the same rules against a different root.  Paths are POSIX-style
and relative to the checked root (``src/repro`` in the tier-1 gate); an
entry ending in ``/`` matches the whole subtree.

The allowlists are the *reasons* half of each rule: a module listed here
is exempt by design, with the rationale recorded next to it, which is the
difference between an allowlist and a blind spot.
"""

from __future__ import annotations

from dataclasses import dataclass


def _match(rel: str, patterns: tuple[str, ...]) -> bool:
    for pat in patterns:
        if pat.endswith("/"):
            if rel.startswith(pat) or f"/{pat}" in f"/{rel}":
                return True
        elif rel == pat or rel.endswith(f"/{pat}"):
            return True
    return False


@dataclass(frozen=True)
class CheckPolicy:
    """Scopes and exemptions for the built-in RPR rules."""

    #: RPR001 — modules allowed to touch the host wall clock, and why:
    #:   machines/metrics.py   wall_time / wall_phases accounting itself
    #:   trace/tracer.py       span wall-clock capture (the other clock)
    #:   trace/provenance.py   run manifests timestamp by design
    #:   parallel.py           the process-pool engine (host execution)
    #:   service/              request latency / worker wall accounting
    #:                         (serving measures the host by design)
    #: ``obs/`` is deliberately absent: telemetry may read only the
    #: interval clocks in ``obs_clock_allow``.
    wallclock_modules: tuple[str, ...] = (
        "machines/metrics.py",
        "trace/tracer.py",
        "trace/provenance.py",
        "parallel.py",
        "service/",
        "benchmarks/",
    )

    #: RPR002 — modules allowed to read ``os.environ``: CLI entry points
    #: and the benchmark harness (configuration enters a run exactly once,
    #: at the edge, never inside an algorithm).
    entrypoint_modules: tuple[str, ...] = (
        "__main__.py",
        "benchmarks/",
    )

    #: RPR002 — subtrees whose float accumulation must never be fed by
    #: set iteration (simulated charges are order-sensitive float sums).
    accounting_paths: tuple[str, ...] = (
        "machines/",
        "ops/",
        "core/",
    )

    #: RPR003 — subtrees where PE-data movement must charge simulated
    #: time.  metrics.py/topology.py/indexing.py are the charge API and
    #: pure index math; routing modules estimate round counts without
    #: holding PE data, so they are out of scope by design.
    charge_scope: tuple[str, ...] = (
        "ops/",
        "machines/machine.py",
        "machines/micro.py",
        "machines/micro_cube.py",
    )

    #: RPR003 — callable names that count as "going through the charge
    #: API".  Attribute or bare calls to any of these satisfy the rule.
    charge_calls: tuple[str, ...] = (
        "charge_local", "charge_comm", "charge_comm_total",
        "local", "exchange", "exchange_sweep", "doubling_sweep",
        "monotone_route", "long_shift", "execute_plan",
    )

    #: RPR006 — the vectorized plan executor: past its lowering boundary
    #: everything must stay whole-array numeric code.
    vexec_modules: tuple[str, ...] = (
        "ops/vexec.py",
    )

    #: RPR006 — the only charge calls the vectorized executor may make:
    #: one fused charge vector per operation.  Any other charge_calls name
    #: inside vexec is a per-round charge, which would let simulated time
    #: drift from the reference executor's.
    vexec_fused_charges: tuple[str, ...] = (
        "exchange_sweep", "doubling_sweep", "long_shift",
    )

    #: RPR005 — the parallel-engine module itself (its internal
    #: ``pool.submit`` plumbing is the implementation, not a client).
    parallel_engine_modules: tuple[str, ...] = (
        "parallel.py",
    )

    #: Names whose call submits work to a process pool (clients of the
    #: campaign engine) — the sites RPR005 audits.
    parallel_submit_calls: tuple[str, ...] = (
        "parallel_map",
        "submit",
    )

    #: RPR007 — the asyncio serving layer: its event loop must never run
    #: a simulated run; drivers execute in shard worker pools.
    service_modules: tuple[str, ...] = (
        "service/",
    )

    #: RPR007 — callable names that block for a whole simulated run (the
    #: drivers, the batch/worker entry points, the campaign engine, ops
    #: sorts).  Calling any of these inside an ``async def`` in a service
    #: module is a finding; passing them *uncalled* to ``pool.submit`` is
    #: the sanctioned pattern.
    service_blocking_calls: tuple[str, ...] = (
        "envelope", "envelope_serial",
        "hull_membership_intervals", "steady_hull",
        "run_driver", "direct_response", "execute_batch", "direct_item",
        "run_instance", "campaign", "parallel_map", "bitonic_sort",
    )

    #: RPR008 — the incremental update engine: certificate event queues
    #: must pop in an order that is a pure function of the geometry
    #: (failure time + canonical key), never of Python object identity,
    #: string-hash randomization, or heap insertion order.
    incremental_modules: tuple[str, ...] = (
        "incremental/",
    )

    #: RPR009 — the operational-telemetry package: always-on buffers must
    #: append behind a visible ``len()`` cap guard.  RPR001 scopes its
    #: interval-clock exemption (``obs_clock_allow``) by it too.
    obs_modules: tuple[str, ...] = (
        "obs/",
    )

    #: RPR001 — the only wall-clock reads obs code may make.  Interval
    #: measurement is telemetry's job; anything else (``time.time``,
    #: ``datetime.now``) would put wall timestamps into event streams
    #: whose ordering contract is the sequence number (calendar
    #: timestamps belong to ``trace/provenance.py``).
    obs_clock_allow: tuple[str, ...] = (
        "time.perf_counter",
        "time.perf_counter_ns",
    )

    #: RPR009 — call names that emit structured telemetry records.  Their
    #: arguments must stay structured fields; an f-string argument is a
    #: pre-formatted message that no consumer can filter on.  Checked in
    #: obs modules and at the service's emission sites.
    obs_emit_calls: tuple[str, ...] = (
        "emit",
    )

    #: Taint flow (the RPR001/RPR002 program clauses) — call names whose
    #: argument bytes become response/artifact bytes.  A host-clock or
    #: RNG value reaching one of these is a finding no matter how many
    #: function boundaries it crossed.  Dotted names match exactly;
    #: bare names match the call's leaf.
    taint_payload_sinks: tuple[str, ...] = (
        "json.dumps", "json.dump",
        "response_payload", "payload_bytes", "direct_response",
        "encode_envelope", "envelope_bytes", "canonical_bytes",
    )

    #: Taint flow — modules whose sinks are exempt, and why:
    #:   trace/       spans/manifests carry wall-clock fields by design
    #:   obs/         telemetry serialises host-side measurements
    #:   benchmarks/  benchmark artifacts record wall time on purpose
    #:   machines/metrics.py  the wall-accounting layer itself
    #:   parallel.py  the host-execution engine
    #:   examples/    narrative scripts, not library surface
    taint_exempt_modules: tuple[str, ...] = (
        "trace/",
        "obs/",
        "benchmarks/",
        "machines/metrics.py",
        "parallel.py",
        "examples/",
    )

    #: RPR010/RPR011 — modules whose ``async def`` bodies share state
    #: across task interleavings (the asyncio serving layer and the
    #: incremental engine it drives).
    async_state_modules: tuple[str, ...] = (
        "service/",
        "incremental/",
    )

    #: RPR010/RPR011 — substrings marking an ``async with`` context
    #: expression as a lock (case-insensitive, matched on the leaf name).
    lock_name_hints: tuple[str, ...] = (
        "lock", "mutex", "sem",
    )

    #: RPR011 — method names that *read* a cache/store (the "check" half
    #: of check-then-act).  Membership tests (``in``/``not in``) on a
    #: shared chain count as reads too.
    cache_read_calls: tuple[str, ...] = (
        "get", "peek", "take_cached",
    )

    #: RPR012 — worker-process entry points: functions with these leaf
    #: names (plus every callable passed to a pool submit) execute in
    #: forked workers, so module globals they mutate never reach the
    #: parent.
    cross_process_entries: tuple[str, ...] = (
        "execute_batch", "direct_item",
    )

    #: RPR012 — modules whose globals the rule watches (the serving
    #: layer, where parent and worker share source but not memory).
    cross_process_state_modules: tuple[str, ...] = (
        "service/",
    )

    # ------------------------------------------------------------------
    def is_wallclock_module(self, rel: str) -> bool:
        return _match(rel, self.wallclock_modules)

    def is_entrypoint(self, rel: str) -> bool:
        return _match(rel, self.entrypoint_modules)

    def in_accounting_path(self, rel: str) -> bool:
        return _match(rel, self.accounting_paths)

    def in_charge_scope(self, rel: str) -> bool:
        return _match(rel, self.charge_scope)

    def is_parallel_engine(self, rel: str) -> bool:
        return _match(rel, self.parallel_engine_modules)

    def is_vexec_module(self, rel: str) -> bool:
        return _match(rel, self.vexec_modules)

    def is_service_module(self, rel: str) -> bool:
        return _match(rel, self.service_modules)

    def is_incremental_module(self, rel: str) -> bool:
        return _match(rel, self.incremental_modules)

    def is_obs_module(self, rel: str) -> bool:
        return _match(rel, self.obs_modules)

    def is_taint_exempt(self, rel: str) -> bool:
        return _match(rel, self.taint_exempt_modules)

    def is_async_state_module(self, rel: str) -> bool:
        return _match(rel, self.async_state_modules)

    def is_cross_process_state_module(self, rel: str) -> bool:
        return _match(rel, self.cross_process_state_modules)


DEFAULT_POLICY = CheckPolicy()
