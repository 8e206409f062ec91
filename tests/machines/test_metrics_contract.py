"""The Metrics field-partition contract and accounting invariants.

Every ``Metrics`` dataclass field is either a *simulated charge* (carried
by ``absorb_sim``) or *host-side bookkeeping* (carried by ``absorb_wall``)
— and ``absorb`` is exactly the sum of the two paths.  These tests
introspect the dataclass so adding a field without assigning it to one of
the two absorption paths fails here, not in a silent double-count.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.metrics import Metrics, schedule_time

#: The documented partition (see the comment block above ``absorb_sim``).
SIM_FIELDS = {"time", "rounds", "comm_time", "comm_rounds", "local_rounds",
              "phases"}
WALL_FIELDS = {"wall_time", "wall_phases", "plan_hits", "plan_misses",
               "plan_compile_seconds"}
TRANSIENT_FIELDS = {"_phase_stack"}  # live bookkeeping, never absorbed


def _charged() -> Metrics:
    m = Metrics()
    with m.phase("alpha"):
        m.charge_local(3)
        m.charge_comm(2.0, rounds=2)
    with m.phase("beta"):
        m.charge_local(1)
    m.note_plan(hit=True)
    m.note_plan(hit=False, compile_seconds=0.25)
    return m


def test_every_field_is_assigned_to_exactly_one_absorb_path():
    fields = {f.name for f in dataclasses.fields(Metrics)}
    assert fields == SIM_FIELDS | WALL_FIELDS | TRANSIENT_FIELDS, (
        "new Metrics field: assign it to SIM_FIELDS or WALL_FIELDS here "
        "AND to the matching absorb_sim/absorb_wall path"
    )
    assert not SIM_FIELDS & WALL_FIELDS


def test_absorb_sim_moves_exactly_the_sim_fields():
    src, dst = _charged(), Metrics()
    dst.absorb_sim(src)
    for name in SIM_FIELDS:
        assert getattr(dst, name) == getattr(src, name), name
    for name in WALL_FIELDS:
        blank = getattr(Metrics(), name)
        assert getattr(dst, name) == blank, f"{name} leaked into absorb_sim"


def test_absorb_wall_moves_exactly_the_wall_fields():
    src, dst = _charged(), Metrics()
    dst.absorb_wall(src)
    for name in WALL_FIELDS:
        assert getattr(dst, name) == getattr(src, name), name
    for name in SIM_FIELDS:
        blank = getattr(Metrics(), name)
        assert getattr(dst, name) == blank, f"{name} leaked into absorb_wall"


def test_absorb_is_sim_plus_wall():
    src = _charged()
    via_absorb, via_parts = Metrics(), Metrics()
    via_absorb.absorb(src)
    via_parts.absorb_sim(src)
    via_parts.absorb_wall(src)
    assert via_absorb.snapshot() == via_parts.snapshot()
    assert via_absorb.snapshot()["time"] == src.time


#: A recorded schedule: an unlabelled stretch, two phases (one repeated)
#: and an empty labelled segment, as ``Machine._record`` produces them.
_SCHEDULE = ((None, 3.0, 2, 2.0, 1, 1), ("merge", 5.0, 3, 4.0, 2, 1),
             ("scan", 0.0, 0, 0.0, 0, 0), (None, 1.0, 1, 0.0, 0, 1),
             ("merge", 2.0, 1, 2.0, 1, 0))


def test_absorb_schedule_is_absorb_sim_of_a_fresh_replay():
    fresh = Metrics()
    fresh.replay(_SCHEDULE)
    assert schedule_time(_SCHEDULE) == fresh.time
    via_sub, direct = Metrics(), Metrics()
    # The caller's open phase gets no unlabelled charge: a fresh
    # sub-machine had no phase open when it replayed the schedule.
    with via_sub.phase("outer"), direct.phase("outer"):
        via_sub.absorb_sim(fresh)
        direct.absorb_schedule(_SCHEDULE)
    for name in SIM_FIELDS:
        assert getattr(direct, name) == getattr(via_sub, name), name
    assert list(direct.phases.items()) == list(via_sub.phases.items())
    assert "outer" not in direct.phases


def test_snapshot_round_trips_every_field():
    src = _charged()
    rebuilt = Metrics.from_snapshot(src.snapshot())
    assert rebuilt.snapshot() == src.snapshot()
    # The rebuilt accumulator is live, not a frozen view.
    rebuilt.charge_local(1)
    assert rebuilt.time == src.time + 1


def test_snapshot_is_a_copy():
    m = _charged()
    snap = m.snapshot()
    m.charge_local(5)
    assert snap["time"] != m.time
    snap["phases"]["alpha"] = -1.0
    assert m.phases["alpha"] != -1.0


@given(st.lists(st.integers(min_value=0, max_value=5),
                min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_nested_phase_wall_self_times_sum_to_wall_time(shape):
    """Per-phase wall self-times partition the outermost elapsed time.

    ``shape`` drives a two-level phase tree: each outer phase holds
    ``shape[i]`` nested inner phases.  Nested self-time goes to the inner
    label, the remainder to the outer label, and ``wall_time`` collects
    only outermost exits — so the parts must sum to the whole (up to
    float summation error).
    """
    m = Metrics()
    for i, inner_count in enumerate(shape):
        with m.phase(f"outer{i}"):
            m.charge_local(1)
            for j in range(inner_count):
                with m.phase(f"inner{i}.{j}"):
                    m.charge_local(1)
    total_self = sum(m.wall_phases.values())
    assert total_self == pytest.approx(m.wall_time, rel=1e-9, abs=1e-9)
    # The simulated side of the same contract is exact: every charge went
    # to exactly one phase label.
    assert sum(m.phases.values()) == m.time
