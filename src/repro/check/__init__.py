"""Static invariant checking for the reproduction (`python -m repro.check`).

The runtime layers enforce the cost-model contracts *dynamically* (the
differential oracle, golden scalings, sim-parity smokes); this package
enforces the ones that can be read straight off the source, before any
test runs:

========  ==================  ===========================================
RPR001    two-clock purity    wall-clock reads only in the wall-clock
                              modules (metrics/trace/parallel/service/
                              benchmarks; interval clocks in obs/)
RPR002    determinism         no module-global RNG state, no env reads
                              outside entry points, no set-order float
                              accumulation in accounting paths
RPR003    charge accounting   PE-data movement in ops/machines must call
                              the Metrics/plan charge API
RPR004    bounded caches      module-level memos are size-capped and
                              clearable (test isolation)
RPR005    fork-safety         process-pool workers are picklable, pure
                              functions of their item
RPR006    vexec hygiene       whole-array numeric code and fused charges
                              only inside the vectorized executor
RPR007    service loop        no blocking simulated run inside an async
          purity              service handler
RPR008    incremental queue   event-queue order is a pure function of the
          determinism         geometry, never of id()/hash()/insertion
RPR009    obs hygiene         telemetry buffers cap-guarded, emission
                              payloads structured (no f-strings)
RPR010    await-straddled     shared state written on both sides of an
          writes              await without a lock in scope
RPR011    check-then-act      cache read before an await, write after it
RPR012    cross-process       worker-mutated module globals the parent
          state               process also reads
========  ==================  ===========================================

A rule has a per-file clause, a whole-program clause, or both, under one
id.  The whole-program clauses run over :mod:`repro.check.flow`: a call
graph plus forward taint analysis.  RPR001/RPR002 use it to flag
host-clock, RNG, and unordered-iteration values that cross function
boundaries into charge accounting, payload bytes, or float accumulation
— flows no single-file view can see.

Findings are suppressible per line (``# repro: noqa RPR001 -- reason``)
or per committed-baseline entry; both channels require a reason.  The
tier-1 gate (``tests/check/test_tree_clean.py``) runs :func:`run_check`
over ``src/repro`` and fails on any active finding — the same contract as
``python -m repro.check`` exiting 0.
"""

from .baseline import BaselineError, load_baseline, write_baseline
from .engine import CheckReport, run_check
from .findings import Finding
from .flow import (
    CallGraph,
    ProgramContext,
    TaintAnalysis,
    build_graph,
    build_program,
)
from .policy import DEFAULT_POLICY, CheckPolicy
from .rules import RULES, FileContext, Rule, register

__all__ = [
    "BaselineError", "CallGraph", "CheckPolicy", "CheckReport",
    "DEFAULT_POLICY", "FileContext", "Finding", "ProgramContext", "RULES",
    "Rule", "TaintAnalysis", "build_graph", "build_program",
    "load_baseline", "register", "run_check", "write_baseline",
]
