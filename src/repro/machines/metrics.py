"""Parallel-time accounting for the simulated machines.

One *round* is a lockstep step in which every active PE either performs a
local operation (cost 1) or takes part in a communication whose cost is the
link distance travelled.  ``Metrics.time`` is the weighted total — the
quantity whose growth the paper's Theta-bounds describe — and ``rounds`` is
the unweighted count.  ``phases`` gives a per-label breakdown so benches can
report, e.g., how much of an envelope construction went into merging versus
prefix operations.

Wall-clock vs simulated time
----------------------------
``wall_time`` / ``wall_phases`` record *real host seconds* spent inside
:meth:`Metrics.phase` blocks, alongside the simulated charges.  The two are
deliberately independent: simulated time is accounting (a pure function of
the operation sequence), wall-clock is execution.  Host-side optimisations
(batched eigensolves, crossing caches) shrink ``wall_time`` while leaving
every simulated charge bit-identical — the invariant
``docs/cost_model.md`` documents and ``benchmarks/bench_wallclock.py``
tracks.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Protocol

__all__ = ["Metrics", "global_wall_phases", "reset_global_wall_phases",
           "schedule_time", "set_trace_hook"]

class PhaseHook(Protocol):
    """Structural type of the span-trace hook (``repro.trace.tracer``)."""

    def begin_phase(self, label: str, metrics: Metrics) -> object: ...

    def end_phase(self, token: object) -> None: ...


#: The installed span-trace hook (``repro.trace.tracer.Tracer`` — or any
#: object with ``begin_phase(label, metrics) -> token`` and
#: ``end_phase(token)``).  ``None`` means tracing is disabled, and the
#: only cost :meth:`Metrics.phase` pays is this one ``None`` check.  The
#: hook *observes* the accumulator (reading charge deltas at entry/exit);
#: it must never mutate it — the sim-parity contract tested by
#: ``tests/trace/test_overhead_smoke.py``.
_TRACE_HOOK: PhaseHook | None = None


def set_trace_hook(hook: PhaseHook | None) -> None:
    """Install (or with ``None`` remove) the process-wide phase-span hook.

    Called by :func:`repro.trace.tracer.install`; the dependency points
    from the tracing layer into the machines layer, never back.
    """
    global _TRACE_HOOK
    _TRACE_HOOK = hook

#: Process-wide per-phase wall-clock, summed over every Metrics instance.
#: Each phase exit is counted exactly once (absorbing a sub-machine's
#: metrics into a parent does not re-count), so this is the true host cost
#: of each phase across an entire run — the number the benchmark harness
#: prints under --verbose.
_GLOBAL_WALL_PHASES: defaultdict[str, float] = defaultdict(float)  # repro: noqa RPR004 -- keyed by phase labels (small fixed vocabulary), wall-side only; cleared by reset_global_wall_phases()


def global_wall_phases() -> dict:
    """A copy of the process-wide per-phase wall-clock totals (seconds)."""
    return dict(_GLOBAL_WALL_PHASES)


def reset_global_wall_phases() -> None:
    _GLOBAL_WALL_PHASES.clear()


def schedule_time(schedule: tuple) -> float:
    """The simulated time a fresh accumulator has after replaying
    ``schedule`` (see :meth:`Metrics.replay`)."""
    time = 0.0
    for seg in schedule:
        if seg[2]:
            time += seg[1]
    return time


@dataclass
class Metrics:
    """Mutable accumulator of simulated parallel cost and host wall-clock."""

    time: float = 0.0
    rounds: int = 0
    comm_time: float = 0.0
    comm_rounds: int = 0
    local_rounds: int = 0
    wall_time: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_compile_seconds: float = 0.0
    phases: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    wall_phases: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    _phase_stack: list[list[Any]] = field(default_factory=list)

    def charge_local(self, count: int = 1) -> None:
        """Charge ``count`` lockstep local-computation rounds."""
        self.time += count
        self.rounds += count
        self.local_rounds += count
        if self._phase_stack:
            self.phases[self._phase_stack[-1][0]] += count

    def charge_comm(self, distance: float, rounds: int = 1) -> None:
        """Charge a communication round spanning ``distance`` links."""
        self.charge_comm_total(distance * rounds, rounds)

    def charge_comm_total(self, cost: float, rounds: int) -> None:
        """Charge ``rounds`` communication rounds totalling ``cost``.

        Used to aggregate a deterministic sweep of exchanges (e.g. the
        per-bit legs of a monotone route) into one call.  All link
        distances in the cost model are integer-valued, so the aggregated
        total is bit-identical to charging the legs one by one.
        """
        self.time += cost
        self.rounds += rounds
        self.comm_time += cost
        self.comm_rounds += rounds
        if self._phase_stack:
            self.phases[self._phase_stack[-1][0]] += cost

    def note_plan(self, hit: bool, compile_seconds: float = 0.0) -> None:
        """Record one movement-plan cache lookup (host-side diagnostics).

        Plan counters are execution bookkeeping like ``wall_time``, not
        simulated charges: they are excluded from the bit-identity
        comparison (``repro.verify.compare.sim_snapshot``).
        """
        if hit:
            self.plan_hits += 1
        else:
            self.plan_misses += 1
            self.plan_compile_seconds += compile_seconds

    @contextmanager
    def phase(self, label: str, *, wall: bool = True) -> Iterator[Metrics]:
        """Attribute costs charged inside the block to ``label``.

        Simulated charges go to ``phases[label]``; real elapsed host time
        goes to ``wall_phases[label]`` (self time: nested phases are
        attributed to the inner label, as with simulated charges) and, for
        outermost phases, to ``wall_time``.  ``wall=False`` records no
        host time (the block's seconds belong to another accumulator —
        a :class:`~repro.machines.machine.MachineGroup`'s lead member);
        charges and the trace span are unchanged.
        """
        hook = _TRACE_HOOK
        span = hook.begin_phase(label, self) if hook is not None else None
        frame = [label, 0.0]  # label, accumulated child wall time
        self._phase_stack.append(frame)
        start = perf_counter()
        try:
            yield self
        finally:
            elapsed = perf_counter() - start
            self._phase_stack.pop()
            if wall:
                self_time = elapsed - frame[1]
                self.wall_phases[label] += self_time
                _GLOBAL_WALL_PHASES[label] += self_time
                if self._phase_stack:
                    self._phase_stack[-1][1] += elapsed
                else:
                    self.wall_time += elapsed
            if span is not None:
                hook.end_phase(span)

    @contextmanager
    def host_time(self, label: str) -> Iterator[None]:
        """Attribute the block's host seconds to ``wall_phases[label]``.

        Wall-clock only: unlike :meth:`phase` it records no simulated
        charge, opens no trace span and pushes nothing on the phase
        stack.  It times machine-free host work (the envelope's geometry
        step) for layers that may not read a clock themselves.  Nested
        inside a phase, the seconds leave that phase's self time, exactly
        as a nested :meth:`phase` would.
        """
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.wall_phases[label] += elapsed
            _GLOBAL_WALL_PHASES[label] += elapsed
            if self._phase_stack:
                self._phase_stack[-1][1] += elapsed
            else:
                self.wall_time += elapsed

    def replay(self, schedule: tuple) -> None:
        """Add a recorded charge schedule (``Machine.replay``).

        ``schedule`` is a tuple of ``(label, time, rounds, comm_time,
        comm_rounds, local_rounds)`` segments, each the aggregated charges
        of one phase (``label``) or of an unlabelled stretch (``None``,
        attributed like a charge made here: to the innermost open phase).
        The result equals making the original charge calls inside the
        same ``phase`` blocks: link distances are integer-valued, so the
        aggregated sums are bit-identical.  Only when a trace hook is
        installed are the labelled segments' phase spans opened and
        closed, so traced runs record the same span tree.
        """
        hook = _TRACE_HOOK
        stack = self._phase_stack
        for label, time, rounds, comm_time, comm_rounds, local_rounds \
                in schedule:
            span = (hook.begin_phase(label, self)
                    if hook is not None and label is not None else None)
            if rounds:
                self.time += time
                self.rounds += rounds
                self.comm_time += comm_time
                self.comm_rounds += comm_rounds
                self.local_rounds += local_rounds
                if label is None and stack:
                    label = stack[-1][0]
                if label is not None:
                    self.phases[label] += time
            if span is not None:
                hook.end_phase(span)

    def absorb_schedule(self, schedule: tuple) -> None:
        """Add a schedule's charges the way a sub-machine's are absorbed.

        Equals :meth:`absorb_sim` of a fresh accumulator that replayed
        ``schedule``: a fresh accumulator has no open phase, so labelled
        segments go to their phase and unlabelled ones to *no* phase, not
        to one open here.  No sub-machine is built and no span is opened
        (an untraced envelope level charges its slowest combine this
        way).
        """
        time = comm_time = 0.0
        rounds = comm_rounds = local_rounds = 0
        phases: dict[str, float] = {}
        for label, t, r, ct, cr, lr in schedule:
            if r:
                time += t
                rounds += r
                comm_time += ct
                comm_rounds += cr
                local_rounds += lr
                if label is not None:
                    phases[label] = phases.get(label, 0.0) + t
        self.time += time
        self.rounds += rounds
        self.comm_time += comm_time
        self.comm_rounds += comm_rounds
        self.local_rounds += local_rounds
        for k, v in phases.items():
            self.phases[k] += v

    # ------------------------------------------------------------------
    # Absorbing sub-machine accumulators
    # ------------------------------------------------------------------
    # Every field of this dataclass belongs to exactly one of two groups,
    # and each group has exactly one absorption path:
    #
    # * **simulated charges** (time, rounds, comm/local splits, phases) —
    #   carried only by :meth:`absorb_sim`;
    # * **host-side bookkeeping** (wall_time, wall_phases, plan counters) —
    #   carried only by :meth:`absorb_wall`.
    #
    # :meth:`absorb` is exactly ``absorb_sim + absorb_wall`` — it adds
    # nothing of its own, so no field can ever be carried twice (or be
    # carried by one path and silently dropped by the other).  The
    # partition is enforced by ``tests/machines/test_metrics_contract.py``,
    # which introspects the dataclass fields: adding a field without
    # assigning it to one of the two paths fails that test.
    def absorb_sim(self, other: "Metrics") -> None:
        """Add only the simulated charges of another accumulator."""
        self.time += other.time
        self.rounds += other.rounds
        self.comm_time += other.comm_time
        self.comm_rounds += other.comm_rounds
        self.local_rounds += other.local_rounds
        for k, v in other.phases.items():
            self.phases[k] += v

    def absorb(self, other: "Metrics") -> None:
        """Add another accumulator's simulated charges *and* host-side
        bookkeeping (``absorb_sim`` followed by ``absorb_wall``)."""
        self.absorb_sim(other)
        self.absorb_wall(other)

    def absorb_wall(self, other: "Metrics") -> None:
        """Add only the host-side bookkeeping of another accumulator:
        wall-clock, per-phase wall-clock, and plan-cache counters.

        Parallel composition takes the *maximum* simulated time over
        siblings but the host executed every sibling serially, so the
        non-dominant siblings contribute wall-clock (and plan lookups)
        without simulated time.
        """
        self.wall_time += other.wall_time
        self.plan_hits += other.plan_hits
        self.plan_misses += other.plan_misses
        self.plan_compile_seconds += other.plan_compile_seconds
        for k, v in other.wall_phases.items():
            self.wall_phases[k] += v

    def reset(self) -> None:
        self.time = 0.0
        self.rounds = 0
        self.comm_time = 0.0
        self.comm_rounds = 0
        self.local_rounds = 0
        self.wall_time = 0.0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_compile_seconds = 0.0
        self.phases.clear()
        self.wall_phases.clear()
        self._phase_stack.clear()

    def snapshot(self) -> dict:
        """A plain-dict copy for reporting."""
        return {
            "time": self.time,
            "rounds": self.rounds,
            "comm_time": self.comm_time,
            "comm_rounds": self.comm_rounds,
            "local_rounds": self.local_rounds,
            "wall_time": self.wall_time,
            "plan_cache": {
                "hits": self.plan_hits,
                "misses": self.plan_misses,
                "compile_seconds": self.plan_compile_seconds,
            },
            "phases": dict(self.phases),
            "wall_phases": dict(self.wall_phases),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Metrics":
        """Rebuild an accumulator from :meth:`snapshot` output.

        The inverse used by trace/benchmark consumers that aggregate
        serialized snapshots; ``m.from_snapshot(m.snapshot())`` round-trips
        every field exactly (``tests/machines/test_metrics_contract.py``).
        """
        plan = snap.get("plan_cache", {})
        m = cls(
            time=snap["time"],
            rounds=snap["rounds"],
            comm_time=snap["comm_time"],
            comm_rounds=snap["comm_rounds"],
            local_rounds=snap["local_rounds"],
            wall_time=snap.get("wall_time", 0.0),
            plan_hits=plan.get("hits", 0),
            plan_misses=plan.get("misses", 0),
            plan_compile_seconds=plan.get("compile_seconds", 0.0),
        )
        m.phases.update(snap.get("phases", {}))
        m.wall_phases.update(snap.get("wall_phases", {}))
        return m
