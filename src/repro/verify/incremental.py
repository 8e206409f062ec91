"""The incremental-update oracle: every update, byte-identical envelopes.

The incremental engine (:mod:`repro.incremental`) promises more than
tolerance-level agreement: after **any** sequence of
insert/delete/retarget updates its maintained envelope must be
*byte-identical* — same piece boundaries, same coefficients, same
labels, to the last bit — to a cold :func:`repro.core.envelope
.envelope_serial` run over the surviving curves.  This module fuzzes
that contract with seeded update scripts and compares canonical JSON
bytes (:func:`repro.incremental.envelope_bytes`) after every step.

Scripts are a pure function of their seed: the base family, the number
of updates, each action and its operands all come from one
``np.random.default_rng(seed)`` stream, so a failing seed replays
exactly — and a serialized failure replays with no RNG at all
(coefficients ride in the corpus record).

Script kinds cycle over the generator families whose crossing structure
is *robust*: ``random``, ``duplicate``, ``tangent`` and
``degree_boundary``.  The engineered multi-way-coincident kinds
(``tie``, ``near_degenerate``) are excluded by design: at a k-way
coincident crossing the serial oracle's own output depends on its
divide-and-conquer merge history (hairline 2-ulp boundary gaps), which
no history-free maintained structure can replay.  That boundary is
documented in ``docs/incremental.md``; within it, parity is exact and
this campaign holds the line.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..incremental import IncrementalEnvelope, envelope_bytes
from .generators import make_curves
from .oracle import DEFAULT_CORPUS_DIR

__all__ = ["UPDATE_KINDS", "UpdateReport", "UpdateCampaignResult",
           "make_update_script", "run_update_instance", "update_campaign",
           "replay_update", "save_update_failure"]

#: Generator kinds with robust (non-multi-way-coincident) crossing
#: structure — the domain of the exact byte-parity contract.
UPDATE_KINDS = ("random", "duplicate", "tangent", "degree_boundary")

_ACTIONS = ("insert", "delete", "retarget")


def make_update_script(seed: int, *, s: int = 2, base_lo: int = 3,
                       base_hi: int = 10, steps_lo: int = 6,
                       steps_hi: int = 14) -> dict:
    """One seeded update script: base family plus an action sequence.

    Deterministic in ``(seed, s, bounds)``.  Inserted curves are drawn
    from the same generator family as the base (fresh sub-seeds), delete
    and retarget targets are chosen by *position* among the live ids at
    that step — so the script is replayable against a fresh engine
    without recording ids.
    """
    kind = UPDATE_KINDS[seed % len(UPDATE_KINDS)]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(base_lo, base_hi + 1))
    steps = int(rng.integers(steps_lo, steps_hi + 1))
    base = make_curves(kind, seed, n=n, s=s)
    degree = max([s] + [c.degree for c in base])
    script = []
    live = n  # mirror of the engine's population size
    fresh = 0
    for _ in range(steps):
        action = _ACTIONS[int(rng.integers(0, 3))] if live else "insert"
        if action == "insert":
            sub = seed * 1000 + fresh + 1
            fresh += 1
            curve = make_curves(kind, sub, n=1, s=s)[0]
            script.append({"action": "insert",
                           "coeffs": list(curve._cl)})
            live += 1
        else:
            pos = int(rng.integers(0, live))
            if action == "delete":
                script.append({"action": "delete", "pos": pos})
                live -= 1
            else:
                sub = seed * 1000 + fresh + 1
                fresh += 1
                curve = make_curves(kind, sub, n=1, s=s)[0]
                script.append({"action": "retarget", "pos": pos,
                               "coeffs": list(curve._cl)})
    return {
        "kind": kind, "seed": seed, "n": n, "s": degree,
        "op": "min" if seed % 2 == 0 else "max",
        "base": [list(f._cl) for f in base],
        "script": script,
    }


@dataclass
class UpdateReport:
    """Parity verdict for one seeded update script."""

    kind: str
    seed: int
    ok: bool
    steps: int
    #: 1-based index of the first diverging update (0: the bootstrap
    #: itself diverged; None: no divergence).
    failed_step: int | None = None
    mismatch: str | None = None
    script_json: dict | None = None


@dataclass
class UpdateCampaignResult:
    reports: list[UpdateReport]
    corpus_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def failures(self) -> list[UpdateReport]:
        return [r for r in self.reports if not r.ok]

    def summary(self) -> dict:
        per: dict[str, dict] = {}
        for r in self.reports:
            stat = per.setdefault(r.kind, {"instances": 0, "failed": 0})
            stat["instances"] += 1
            stat["failed"] += not r.ok
        return per


def _first_diff(got: bytes, want: bytes) -> str:
    """A short human-readable locator for the first differing byte."""
    n = min(len(got), len(want))
    at = next((i for i in range(n) if got[i] != want[i]), n)
    lo, hi = max(0, at - 40), at + 40
    return (f"first differing byte at offset {at}: "
            f"incremental ...{got[lo:hi]!r}... vs "
            f"reference ...{want[lo:hi]!r}...")


def _apply_step(engine: IncrementalEnvelope, step: dict) -> None:
    if step["action"] == "insert":
        engine.insert(step["coeffs"])
        return
    ids = engine.ids()
    if step["action"] == "delete":
        engine.delete(ids[step["pos"]])
    else:
        engine.retarget(ids[step["pos"]], step["coeffs"])


def run_update_instance(seed: int, *, check_each: bool = True,
                        script: dict | None = None) -> UpdateReport:
    """Replay one update script, checking byte parity along the way.

    ``check_each`` compares after the bootstrap and after every update
    (the campaign default); ``False`` checks the final state only (the
    benchmark's cheaper in-run assertion).
    """
    if script is None:
        script = make_update_script(seed)
    engine = IncrementalEnvelope(s=script["s"], op=script["op"])
    engine.reset(script["base"])

    def parity() -> str | None:
        got = engine.canonical_bytes()
        want = envelope_bytes(engine.recompute_reference())
        return None if got == want else _first_diff(got, want)

    steps = len(script["script"])
    if check_each:
        mism = parity()
        if mism:
            return UpdateReport(script["kind"], script["seed"], False, steps,
                                failed_step=0, mismatch=mism,
                                script_json=script)
    for i, step in enumerate(script["script"], start=1):
        _apply_step(engine, step)
        if check_each:
            mism = parity()
            if mism:
                return UpdateReport(script["kind"], script["seed"], False,
                                    steps, failed_step=i,
                                    mismatch=f"after {step['action']}: {mism}",
                                    script_json=script)
    if not check_each:
        mism = parity()
        if mism:
            return UpdateReport(script["kind"], script["seed"], False, steps,
                                failed_step=steps, mismatch=mism,
                                script_json=script)
    return UpdateReport(script["kind"], script["seed"], True, steps)


def save_update_failure(report: UpdateReport,
                        corpus_dir=DEFAULT_CORPUS_DIR) -> str:
    """Serialize a diverging script for one-command, RNG-free replay."""
    corpus_dir = pathlib.Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "algorithm": "incremental",
        "kind": report.kind,
        "seed": report.seed,
        "failed_step": report.failed_step,
        "mismatch": report.mismatch,
        **(report.script_json or {}),
    }
    path = corpus_dir / (
        f"incremental-{report.kind}-seed{report.seed}.json"
    )
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return str(path)


def replay_update(path) -> UpdateReport:
    """Re-run a serialized update script from its coefficients (no RNG)."""
    record = json.loads(pathlib.Path(path).read_text())
    return run_update_instance(record["seed"], script=record)


def _update_item(item: tuple) -> UpdateReport:
    """Worker entry point: one seeded script, rebuilt inside the worker.

    Module-level and a pure function of the seed, so campaign results
    are identical for every ``jobs`` value.
    """
    (seed,) = item
    return run_update_instance(seed)


def update_campaign(instances: int = 50, seed0: int = 0, corpus_dir=None,
                    progress: Callable[[str], None] | None = None,
                    jobs: int = 1) -> UpdateCampaignResult:
    """Byte-parity fuzzing over ``instances`` seeded update scripts.

    Seeds ``seed0 .. seed0+instances-1`` cycle the robust generator
    kinds; each script checks parity after the bootstrap and after every
    update.  ``jobs`` fans scripts out over worker processes
    (``repro.parallel``) with results merged in seed order — identical
    output for every ``jobs`` value.
    """
    from ..parallel import parallel_map

    items = [(seed0 + i,) for i in range(instances)]
    reports = list(parallel_map(_update_item, items, jobs=jobs))
    corpus_files = []
    for report in reports:
        if not report.ok and corpus_dir is not None:
            corpus_files.append(save_update_failure(report, corpus_dir))
    if progress:
        by_kind = {}
        for r in reports:
            ok, total = by_kind.get(r.kind, (0, 0))
            by_kind[r.kind] = (ok + r.ok, total + 1)
        for kind in sorted(by_kind):
            ok, total = by_kind[kind]
            progress(f"incremental/{kind}: {ok}/{total} byte-identical")
    return UpdateCampaignResult(reports=reports, corpus_files=corpus_files)
