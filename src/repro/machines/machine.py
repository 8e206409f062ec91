"""The lockstep SIMD machine simulator.

A :class:`Machine` pairs a :class:`~repro.machines.topology.Topology` with a
:class:`~repro.machines.metrics.Metrics` accumulator.  Data lives in ordinary
NumPy arrays indexed by *virtual slot* (rank order); the data-movement
operations in :mod:`repro.ops` perform the actual array manipulation and call
back into the machine to charge simulated parallel time:

* :meth:`Machine.local` — one lockstep round of local computation,
* :meth:`Machine.exchange` — a compare/exchange or shift round at a given
  virtual-slot bit (cost = link distance under the topology),
* :meth:`Machine.monotone_route` — an order-preserving route (cost = one
  round per rank bit: ``Theta(sqrt(n))`` mesh, ``Theta(log n)`` hypercube),
* :meth:`Machine.long_shift` — a lockstep shift across a whole segment
  (used for the reversal step of bitonic merging).

The asymptotics of every Table 1 operation emerge from these four charges.
:meth:`Machine.replay` charges a fixed sequence of them (one envelope
combine) from a memoised per-phase schedule.

A :class:`MachineGroup` costs one run on several machines at once: the
machine decides only the charges, never the answer, so an entry point
given a group computes its result once while every charge call and phase
fans out to each member.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, ExitStack, contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

from ..errors import OperationContractError
from ..trace.registry import register_gauge
from .metrics import Metrics
from .topology import (
    CCCTopology,
    HypercubeTopology,
    MeshTopology,
    PRAMTopology,
    SerialTopology,
    ShuffleExchangeTopology,
    Topology,
)

__all__ = ["Machine", "MachineGroup", "charge_schedule", "mesh_machine",
           "hypercube_machine", "ccc_machine", "shuffle_exchange_machine",
           "pram_machine", "serial_machine"]


#: Charge parameters are pure functions of (topology kind, size, scheme,
#: operation length), so they are memoised ACROSS machine instances — the
#: envelope recursion charges each combine as a sub-machine of its own
#: signature, which per-instance caches would not serve.  Values are small
#: tuples of floats/ints and the recorded schedules of
#: :func:`charge_schedule`.
_CHARGE_CACHE: dict = {}

#: Bound on cached charge signatures.  A run touches a few hundred
#: (topology, length, bits) combinations; adversarial sweeps over many
#: machine sizes could otherwise grow the memo without limit, so on
#: overflow the whole memo is dropped (recomputation is cheap and exact).
_CHARGE_CACHE_CAP = 4096

#: Memoised bit tuples for doubling sweeps, keyed by operation length.
_DOUBLING_BITS: dict = {}

_DOUBLING_BITS_CAP = 512

# Live cache sizes, sampled by the shared registry at snapshot time so the
# --verbose table and trace exports show every memo in one place.
register_gauge("charge_cache.size", lambda: len(_CHARGE_CACHE))
register_gauge("charge_cache.doubling_bits", lambda: len(_DOUBLING_BITS))


_T = TypeVar("_T")

#: End-of-generator sentinel for :meth:`Machine._record`.
_END = object()


def _charge_cache_put(key: tuple, value: _T) -> _T:
    if len(_CHARGE_CACHE) >= _CHARGE_CACHE_CAP:
        _CHARGE_CACHE.clear()
    _CHARGE_CACHE[key] = value
    return value


def charge_schedule(sig: tuple, charges: Callable[..., Iterator[str | None]],
                    params: tuple, machine: Callable[[], Machine]) -> tuple:
    """The memoised schedule of ``charges(m, *params)`` on any machine
    ``m`` whose signature (``Machine._sig``) is ``sig``.

    A hit is one lookup in the bounded ``_CHARGE_CACHE``; only a miss
    calls ``machine()`` for a machine of that signature to record on (see
    :meth:`Machine.replay`).  The schedule is a tuple of per-phase
    segments for :meth:`Metrics.replay
    <repro.machines.metrics.Metrics.replay>` or :meth:`Metrics.absorb_schedule
    <repro.machines.metrics.Metrics.absorb_schedule>`.
    """
    key = (charges, sig, params)
    schedule = _CHARGE_CACHE.get(key)
    if schedule is None:
        m = machine()
        schedule = _charge_cache_put(key, m._record(charges(m, *params)))
    return schedule


def clear_machine_caches() -> None:
    """Drop the cross-instance charge memos (see ``repro.machines.clear_caches``)."""
    _CHARGE_CACHE.clear()
    _DOUBLING_BITS.clear()


class Machine:
    """A simulated SIMD parallel machine with cost accounting.

    ``randomized`` switches the sorting substrate from deterministic
    bitonic networks to the Reif–Valiant-style randomized sort (Table 1's
    "expected" column): sorts then charge the *measured* round count of a
    Valiant two-phase routing simulation instead of the bitonic network.
    Only meaningful on hypercube-like topologies, where randomization buys
    an asymptotic improvement.
    """

    def __init__(self, topology: Topology, *, randomized: bool = False) -> None:
        self.topology = topology
        self.metrics = Metrics()
        self.randomized = randomized
        self._rand_calls = 0
        # Cross-instance charge-parameter memo key for this topology.
        self._sig = (
            type(topology),
            topology.n_pe,
            getattr(topology, "scheme", None),
        )

    # ------------------------------------------------------------------
    @property
    def n_pe(self) -> int:
        return self.topology.n_pe

    @property
    def name(self) -> str:
        return self.topology.name

    def phase(self, label: str) -> AbstractContextManager[Metrics]:
        """Context manager attributing charges to ``label``."""
        return self.metrics.phase(label)

    def reset(self) -> None:
        self.metrics.reset()

    def replay(self, charges: Callable[..., Iterator[str | None]],
               *params) -> None:
        """Charge the sequence ``charges(machine, *params)`` describes,
        from a memoised schedule.

        ``charges`` is a generator function that makes ordinary charge
        calls on the machine it is given and yields a phase label (or
        ``None`` for unattributed charges) before each phase's calls.
        Its charge sequence is a pure function of the topology and
        ``params``, so it runs once per ``(charges, topology, params)``:
        the per-phase totals are recorded into the bounded
        ``_CHARGE_CACHE`` and every later call adds them with
        :meth:`Metrics.replay <repro.machines.metrics.Metrics.replay>`.
        """
        self.metrics.replay(
            charge_schedule(self._sig, charges, params, lambda: self))

    def _record(self, steps: Iterator[str | None]) -> tuple:
        """Run a charge generator against one scratch accumulator per
        phase segment; returns the segments' aggregated charges."""
        saved = self.metrics
        segments = []
        label = None
        try:
            while True:
                self.metrics = seg = Metrics()
                nxt = next(steps, _END)
                if label is not None or seg.rounds:
                    segments.append((label, seg.time, seg.rounds,
                                     seg.comm_time, seg.comm_rounds,
                                     seg.local_rounds))
                if nxt is _END:
                    return tuple(segments)
                label = nxt
        finally:
            self.metrics = saved

    # ------------------------------------------------------------------
    # Cost charges
    # ------------------------------------------------------------------
    def _slots_per_pe(self, length: int) -> int:
        if isinstance(self.topology, SerialTopology):
            return length
        return max(1, length // self.n_pe)

    def local(self, length: int, count: int = 1) -> None:
        """Charge ``count`` local rounds of an operation over ``length`` slots.

        With ``c`` slots per PE a lockstep round costs ``c`` (each PE handles
        its slots serially); on the serial machine it costs ``length``.
        """
        self.metrics.charge_local(count * self._slots_per_pe(length))

    def exchange(self, length: int, bit: int, count: int = 1) -> None:
        """Charge ``count`` lockstep exchange/shift rounds at slot bit ``bit``.

        All PEs exchange simultaneously with the partner whose rank differs
        in the corresponding rank bit; the round costs the link distance
        (times the slots-per-PE factor for virtualised operations).
        """
        cached = _CHARGE_CACHE.get(("x", self._sig, bit, length))
        if cached is None:
            c = self._slots_per_pe(length)
            dist = self.topology.slot_exchange_distance(bit, length)
            cached = _charge_cache_put(("x", self._sig, bit, length), (c, dist))
        c, dist = cached
        if dist <= 0:
            # Intra-PE data motion: a local round.
            self.metrics.charge_local(count * c)
        else:
            self.metrics.charge_comm(dist * c, rounds=count)

    def monotone_route(self, length: int) -> None:
        """Charge an order-preserving (concentration) route over ``length``.

        A monotone route crosses each rank-bit dimension at most once with
        no congestion, so its cost is the sum of per-bit exchange distances:
        ``Theta(sqrt(n))`` on the mesh, ``Theta(log n)`` on the hypercube,
        1 on the PRAM.  The per-bit legs are aggregated into one charge
        (all distances are integer-valued, so the total is bit-identical
        to charging the legs individually).
        """
        cached = _CHARGE_CACHE.get(("r", self._sig, length))
        if cached is None:
            c = self._slots_per_pe(length)
            bits = max(1, length.bit_length() - 1)
            cost = sum(
                max(self.topology.slot_exchange_distance(b, length), 1.0) * c
                for b in range(bits)
            )
            cached = _charge_cache_put(("r", self._sig, length), (cost, bits))
        cost, bits = cached
        self.metrics.charge_comm_total(cost, bits)

    def exchange_sweep(self, length: int, bits: tuple) -> None:
        """Charge one exchange round per bit in ``bits``, aggregated.

        Bit-identical to ``for b in bits: self.exchange(length, b)``: the
        per-leg costs are integer-valued, so summing them before charging
        changes neither the totals nor the local/comm split.
        """
        key = ("s", self._sig, length, bits)
        cached = _CHARGE_CACHE.get(key)
        if cached is None:
            c = self._slots_per_pe(length)
            loc = 0
            cost = 0.0
            rounds = 0
            for b in bits:
                dist = self.topology.slot_exchange_distance(b, length)
                if dist <= 0:
                    loc += c
                else:
                    cost += dist * c
                    rounds += 1
            cached = _charge_cache_put(key, (loc, cost, rounds))
        loc, cost, rounds = cached
        if loc:
            self.metrics.charge_local(loc)
        if rounds:
            self.metrics.charge_comm_total(cost, rounds)

    def doubling_sweep(self, length: int) -> None:
        """Charge a recursive-doubling sweep (prefix/fill cost pattern):
        one exchange round at each bit ``0 .. log2(length) - 1``."""
        bits = _DOUBLING_BITS.get(length)
        if bits is None:
            if len(_DOUBLING_BITS) >= _DOUBLING_BITS_CAP:
                _DOUBLING_BITS.clear()
            bits = _DOUBLING_BITS[length] = tuple(
                range(max(0, length.bit_length() - 1))
            )
        self.exchange_sweep(length, bits)

    def long_shift(self, length: int, span: int) -> None:
        """Charge a lockstep shift/reversal across a span of ``span`` slots.

        Used for the half-reversal that turns two ascending runs into a
        bitonic sequence; cost is the topology distance across the span
        (``Theta(sqrt(span))`` mesh, ``Theta(log span)`` hypercube).
        """
        c = self._slots_per_pe(length)
        bits = max(1, span.bit_length() - 1)
        # Distance across a block of `span` slots: the highest bit dominates.
        dist = max(
            (self.topology.slot_exchange_distance(b, length) for b in range(bits)),
            default=1.0,
        )
        self.metrics.charge_comm(max(dist, 1.0) * c, rounds=1)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.topology!r}, time={self.metrics.time:g})"


class MachineGroup:
    """Several machines costed by one run.

    Pass a group wherever an entry point takes a machine only to charge
    it: the answer is computed once, and every charge call and every
    :meth:`phase` goes to each member in member order, so each member's
    metrics equal a solo run's.  Two entry points handle a group
    themselves: ``envelope`` builds one combine tree and costs it on each
    member (the only way to fan one envelope out to several machines),
    and ``bitonic_sort`` charges each ``randomized`` member its own
    Valiant-routed rounds.

    A group is not a :class:`Machine` and owns no :class:`Metrics`.
    :attr:`metrics` is the lead (first) member's accumulator, used only
    for host time and driver spans; read each member's charges from the
    member.  Entry points that build machines from a topology or read a
    single machine's totals raise :class:`OperationContractError` on a
    group.
    """

    def __init__(self, machines: Iterable[Machine]) -> None:
        self.members = tuple(machines)
        if not self.members:
            raise OperationContractError("a MachineGroup needs a member")
        if not all(isinstance(m, Machine) for m in self.members):
            raise OperationContractError(
                "MachineGroup members must be Machines")

    @property
    def metrics(self) -> Metrics:
        """The lead member's accumulator (host time and driver spans)."""
        return self.members[0].metrics

    @property
    def topology(self) -> Topology:
        raise OperationContractError(
            "a MachineGroup has no single topology; run this entry point "
            "on each member")

    @contextmanager
    def phase(self, label: str) -> Iterator[Metrics]:
        """Open ``label`` on every member; host time goes to the lead."""
        lead, *rest = self.members
        with ExitStack() as stack:
            stack.enter_context(lead.metrics.phase(label))
            for m in rest:
                stack.enter_context(m.metrics.phase(label, wall=False))
            yield lead.metrics

    def replay(self, charges: Callable[..., Iterator[str | None]],
               *params) -> None:
        for m in self.members:
            m.replay(charges, *params)

    def local(self, length: int, count: int = 1) -> None:
        for m in self.members:
            m.local(length, count)

    def exchange(self, length: int, bit: int, count: int = 1) -> None:
        for m in self.members:
            m.exchange(length, bit, count)

    def monotone_route(self, length: int) -> None:
        for m in self.members:
            m.monotone_route(length)

    def exchange_sweep(self, length: int, bits: tuple) -> None:
        for m in self.members:
            m.exchange_sweep(length, bits)

    def doubling_sweep(self, length: int) -> None:
        for m in self.members:
            m.doubling_sweep(length)

    def long_shift(self, length: int, span: int) -> None:
        for m in self.members:
            m.long_shift(length, span)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MachineGroup({list(self.members)!r})"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def mesh_machine(n_pe: int, scheme: str = "shuffled-row-major") -> Machine:
    """A mesh of size ``n_pe`` (must be a power of four), Section 2.2.

    ``scheme`` selects the Figure 2 indexing order the cost model assumes;
    the default gives the Thompson–Kung exchange distances.
    """
    return Machine(MeshTopology(n_pe, scheme))


def hypercube_machine(n_pe: int, *, randomized: bool = False) -> Machine:
    """A hypercube of size ``n_pe`` (must be a power of two), Section 2.3.

    ``randomized=True`` selects the expected-time sorting substrate
    (Reif–Valiant model): Table 1/3's "expected Theta(log n)" columns.
    """
    return Machine(HypercubeTopology(n_pe), randomized=randomized)


def ccc_machine(n_pe: int) -> Machine:
    """A cube-connected-cycles emulation of ``n_pe`` virtual nodes (Sec. 1
    remark; constant-slowdown for the normal algorithms used here)."""
    return Machine(CCCTopology(n_pe))


def shuffle_exchange_machine(n_pe: int) -> Machine:
    """A shuffle-exchange emulation of ``n_pe`` virtual nodes (Sec. 1
    remark)."""
    return Machine(ShuffleExchangeTopology(n_pe))


def pram_machine(n_pe: int) -> Machine:
    """A CREW PRAM with ``n_pe`` processors (baseline model)."""
    return Machine(PRAMTopology(n_pe))


def serial_machine() -> Machine:
    """A single-processor machine (serial baseline model)."""
    return Machine(SerialTopology())
