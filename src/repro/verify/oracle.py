"""The differential oracle: one geometry, every backend, same answer.

For each registered dynamic algorithm, an instance is generated from a
seeded adversarial family (:mod:`repro.verify.generators`), the serial
baseline (``machine=None`` — the charge-free entry point every algorithm
ships) computes the reference output, and the mesh machine, hypercube
machine and CREW PRAM baseline recompute it — each with the host-side
fast-combine path both **on** and **off**.  The serial baseline and the
fast combine share one envelope geometry; with the fast combine off the
machines run the reference array path of Lemma 3.1, an independent
construction.  Checks, per backend:

* output equivalence to tolerance against the serial reference
  (:func:`repro.verify.compare.outputs_match` — value-based, so tie
  re-orderings and representation differences don't false-positive);
* **bit-identical** simulated metrics between fast-combine on and off
  (the PR-1 contract: execution strategy must not move simulated time).

The first divergent instance serializes to the failure corpus
(``tests/corpus/`` by default) as plain JSON carrying both the generator
coordinates ``(kind, seed, n)`` and the raw coefficients, so
``python -m repro.verify --replay <file>`` reproduces it with no RNG in
the loop.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.collision import collision_times
from ..core.containment import containment_intervals, smallest_enclosing_cube_ever
from ..core.envelope import envelope, envelope_serial, set_fast_combine
from ..core.family import PolynomialFamily
from ..core.hull_membership import hull_membership_intervals
from ..core.neighbors import closest_point_sequence, farthest_point_sequence
from ..core.pairs import closest_pair_sequence
from ..core.steady import (
    steady_closest_pair,
    steady_diameter_squared,
    steady_hull,
    steady_nearest_neighbor,
)
from ..machines.machine import hypercube_machine, mesh_machine, pram_machine
from ..trace.provenance import provenance_manifest
from ..trace.tracer import SIM_FIELDS, Tracer, trace_span
from .compare import TOL, outputs_match, sim_snapshot
from .generators import (
    curves_from_json,
    curves_to_json,
    make_curves,
    make_system,
    system_from_json,
    system_to_json,
)

__all__ = ["ALGORITHMS", "BACKENDS", "Algorithm", "Divergence",
           "InstanceReport", "CampaignResult", "run_instance", "campaign",
           "replay", "save_failure", "DEFAULT_CORPUS_DIR"]

#: Machine backends differentially tested against the serial baseline.
#: 64 PEs everywhere: outputs are machine-size independent (the engine caps
#: sub-machines at the parent's size), so small machines keep campaigns fast.
BACKENDS: dict[str, Callable] = {
    "mesh": lambda: mesh_machine(64),
    "hypercube": lambda: hypercube_machine(64),
    "pram": lambda: pram_machine(64),
}

DEFAULT_CORPUS_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "tests" / "corpus"
)


@dataclass(frozen=True)
class Algorithm:
    """A differentially tested dynamic algorithm.

    ``build(seed)`` returns the instance dict (generator coordinates plus
    live objects); ``run(machine_or_None, instance)`` computes the output
    on one backend (``None`` = the serial baseline).
    """

    name: str
    build: Callable[[int], dict]
    run: Callable[[object, dict], object]


def _poly_coeffs(poly) -> list[float]:
    return list(poly._cl)


# ----------------------------------------------------------------------
# Instance builders (all deterministic in the seed)
# ----------------------------------------------------------------------
_CURVE_CYCLE = ("random", "tangent", "duplicate", "tie", "degree_boundary",
                "near_degenerate")
_SYSTEM_CYCLE = ("random", "grazing", "symmetric", "parallel", "mixed_degree")


def _curve_instance(seed: int, *, s: int = 2, lo: int = 4, hi: int = 12) -> dict:
    kind = _CURVE_CYCLE[seed % len(_CURVE_CYCLE)]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi + 1))
    return {
        "domain": "curves", "kind": kind, "seed": seed, "n": n, "s": s,
        "params": {"op": "min" if seed % 2 == 0 else "max"},
        "curves": make_curves(kind, seed, n=n, s=s),
    }


def _system_instance(seed: int, *, kinds=_SYSTEM_CYCLE, k: int = 1,
                     lo: int = 5, hi: int = 10, params=None) -> dict:
    kind = kinds[seed % len(kinds)]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi + 1))
    inst = {
        "domain": "system", "kind": kind, "seed": seed, "n": n, "k": k,
        "params": dict(params(rng) if params else {}),
        "system": make_system(kind, seed, n=n, k=k),
    }
    return inst


def _containment_params(rng) -> dict:
    side = float(np.round(rng.uniform(10.0, 60.0) * 4) / 4)
    return {"box": [side, side]}


ALGORITHMS: dict[str, Algorithm] = {}  # repro: noqa RPR004 -- import-time registry of the fixed algorithm set, not a runtime cache


def _register(name, build, run):
    ALGORITHMS[name] = Algorithm(name, build, run)


_register(
    "envelope",
    _curve_instance,
    lambda m, inst: (
        envelope_serial(inst["curves"], PolynomialFamily(inst["s"]),
                        op=inst["params"]["op"])
        if m is None else
        envelope(m, inst["curves"], PolynomialFamily(inst["s"]),
                 op=inst["params"]["op"])
    ),
)
_register(
    "hull_membership",
    lambda seed: _system_instance(seed, lo=5, hi=8),
    lambda m, inst: hull_membership_intervals(m, inst["system"]),
)
_register(
    "closest_point",
    lambda seed: _system_instance(seed),
    lambda m, inst: closest_point_sequence(m, inst["system"]),
)
_register(
    "farthest_point",
    lambda seed: _system_instance(seed),
    lambda m, inst: farthest_point_sequence(m, inst["system"]),
)
_register(
    "closest_pair",
    lambda seed: _system_instance(seed, lo=4, hi=7),
    lambda m, inst: closest_pair_sequence(m, inst["system"]),
)
_register(
    "collision",
    lambda seed: _system_instance(
        seed, kinds=("crossing", "grazing", "random", "symmetric")
    ),
    lambda m, inst: collision_times(m, inst["system"]),
)
_register(
    "containment",
    lambda seed: _system_instance(
        seed, kinds=("converging", "random", "parallel", "symmetric"),
        params=_containment_params,
    ),
    lambda m, inst: containment_intervals(m, inst["system"],
                                          inst["params"]["box"]),
)
_register(
    "enclosing_cube",
    lambda seed: _system_instance(seed, kinds=("converging", "random",
                                               "parallel")),
    lambda m, inst: smallest_enclosing_cube_ever(m, inst["system"]),
)
_register(
    "steady_hull",
    lambda seed: _system_instance(seed),
    lambda m, inst: steady_hull(m, inst["system"]),
)
# Steady pair outputs are compared by the *squared-distance polynomial* of
# the returned pair, not the indices: mirror-symmetric instances have
# exactly tied pairs, and any of them is a correct answer.
_register(
    "steady_closest_pair",
    lambda seed: _system_instance(seed),
    lambda m, inst: _poly_coeffs(
        inst["system"].distance_squared(*steady_closest_pair(m, inst["system"]))
    ),
)
_register(
    "steady_diameter",
    lambda seed: _system_instance(seed),
    lambda m, inst: _poly_coeffs(steady_diameter_squared(m, inst["system"])),
)
_register(
    "steady_nearest",
    lambda seed: _system_instance(seed),
    lambda m, inst: steady_nearest_neighbor(m, inst["system"]),
)


# ----------------------------------------------------------------------
# Differential runs
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    backend: str
    fast_combine: bool | None  # None: the on/off *metrics* comparison
    mismatches: list[str]


@dataclass
class InstanceReport:
    algorithm: str
    kind: str
    seed: int
    ok: bool
    divergences: list[Divergence] = field(default_factory=list)
    instance_json: dict | None = None
    #: Total simulated time over every machine run of the differential
    #: check, accumulated in run order (see ``_run_differential``) so it is
    #: bit-identical to the traced instance span's derived total.
    sim_time: float = 0.0


@dataclass
class CampaignResult:
    reports: list[InstanceReport]
    corpus_files: list[str] = field(default_factory=list)
    #: One ``algorithm``-category span dict per algorithm (item spans as
    #: children, merged by seed order) when the campaign ran traced.
    algorithm_spans: list[dict] | None = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def failures(self) -> list[InstanceReport]:
        return [r for r in self.reports if not r.ok]

    def summary(self) -> dict:
        per = {}
        for r in self.reports:
            stat = per.setdefault(r.algorithm, {"instances": 0, "failed": 0})
            stat["instances"] += 1
            stat["failed"] += not r.ok
        return per

    def sim_totals(self) -> dict:
        """Per-algorithm simulated time, summed over reports in seed order.

        The summation order matches the trace's per-algorithm span sums
        exactly, so ``reproTotals`` in an exported campaign trace equals
        these values bit-for-bit.
        """
        totals: dict[str, float] = {}
        for r in self.reports:
            totals[r.algorithm] = totals.get(r.algorithm, 0.0) + r.sim_time
        return totals


def _serialize_instance(inst: dict) -> dict:
    payload = {
        k: inst[k] for k in ("domain", "kind", "seed", "n", "params")
        if k in inst
    }
    payload["s"] = inst.get("s")
    payload["k"] = inst.get("k")
    if inst["domain"] == "curves":
        payload["instance"] = curves_to_json(inst["curves"])
    else:
        payload["instance"] = system_to_json(inst["system"])
    return payload


def _deserialize_instance(payload: dict) -> dict:
    inst = dict(payload)
    if payload["domain"] == "curves":
        inst["curves"] = curves_from_json(payload["instance"])
    else:
        inst["system"] = system_from_json(payload["instance"])
    return inst


def _run_differential(alg: Algorithm, inst: dict,
                      tol: float) -> tuple[list[Divergence], float]:
    """Serial reference vs every machine backend, fast combine on and off.

    Returns ``(divergences, sim_time)``; ``sim_time`` accumulates
    ``machine.metrics.time`` over the machine runs *in run order*, the same
    order a tracer records the backend spans in — so traced totals equal
    the reported totals exactly (same float summation order).
    """
    with trace_span("serial", category="backend"):
        reference = alg.run(None, inst)
    divergences = []
    sim_time = 0.0
    prev = set_fast_combine(True)
    try:
        for backend, mk in BACKENDS.items():
            outputs = {}
            snapshots = {}
            for fast in (True, False):
                set_fast_combine(fast)
                machine = mk()
                with trace_span(backend, machine.metrics, category="backend",
                                fast_combine=fast):
                    outputs[fast] = alg.run(machine, inst)
                snapshots[fast] = sim_snapshot(machine.metrics)
                sim_time += machine.metrics.time
            for fast in (True, False):
                mism = outputs_match(reference, outputs[fast], tol)
                if mism:
                    divergences.append(Divergence(backend, fast, mism))
            if snapshots[True] != snapshots[False]:
                moved = sorted(
                    k for k in snapshots[True]
                    if snapshots[True][k] != snapshots[False][k]
                )
                divergences.append(Divergence(backend, None, [
                    "simulated metrics differ between fast-combine on/off: "
                    + ", ".join(
                        f"{k}: {snapshots[True][k]!r} vs "
                        f"{snapshots[False][k]!r}" for k in moved
                    )
                ]))
    finally:
        set_fast_combine(prev)
    return divergences, sim_time


def run_instance(algorithm: str, seed: int, tol: float = TOL,
                 inst: dict | None = None) -> InstanceReport:
    """One differential check of ``algorithm`` on the seeded instance."""
    alg = ALGORITHMS[algorithm]
    if inst is None:
        inst = alg.build(seed)
    divergences, sim_time = _run_differential(alg, inst, tol)
    return InstanceReport(
        algorithm=algorithm,
        kind=inst.get("kind", "?"),
        seed=inst.get("seed", seed),
        ok=not divergences,
        divergences=divergences,
        instance_json=_serialize_instance(inst) if divergences else None,
        sim_time=sim_time,
    )


def save_failure(report: InstanceReport, corpus_dir=DEFAULT_CORPUS_DIR) -> str:
    """Serialize a divergent instance for one-command replay."""
    corpus_dir = pathlib.Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "algorithm": report.algorithm,
        "kind": report.kind,
        "seed": report.seed,
        "divergences": [
            {"backend": d.backend, "fast_combine": d.fast_combine,
             "mismatches": d.mismatches}
            for d in report.divergences
        ],
        "provenance": provenance_manifest(seed=report.seed),
        **(report.instance_json or {}),
    }
    path = corpus_dir / (
        f"{report.algorithm}-{report.kind}-seed{report.seed}.json"
    )
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return str(path)


def replay(path, tol: float = TOL) -> InstanceReport:
    """Re-run a corpus record from its serialized coefficients (no RNG)."""
    record = json.loads(pathlib.Path(path).read_text())
    inst = _deserialize_instance(record)
    return run_instance(record["algorithm"], record["seed"], tol, inst=inst)


def _campaign_item(item: tuple):
    """Worker entry point: one ``(algorithm, seed, tol[, traced])`` run.

    Module-level so the process-parallel engine can pickle it; the
    instance is rebuilt inside the worker from its seed, so the result is
    a pure function of the item — independent of which worker runs it.
    With ``traced`` a local tracer wraps the run in one ``instance`` span
    and the serialized span forest rides back with the report (dicts cross
    the process boundary; the parent merges them by item index).
    """
    name, seed, tol, *rest = item
    if not (rest and rest[0]):
        return run_instance(name, seed, tol)
    tracer = Tracer(f"{name}/seed{seed}")
    with tracer:
        with tracer.span(f"{name}[{seed}]", category="instance",
                         algorithm=name, seed=seed):
            report = run_instance(name, seed, tol)
    return report, tracer.to_dicts()


def _algorithm_span(name: str, children: list[dict]) -> dict:
    """One parent span over an algorithm's traced instances, in seed order.

    Simulated totals are the children's sums accumulated in list order —
    the same order :meth:`CampaignResult.sim_totals` uses, so the two are
    bit-identical.
    """
    sim = dict.fromkeys(SIM_FIELDS, 0.0)
    any_sim = False
    wall = 0.0
    for child in children:
        wall += float(child.get("wall") or 0.0)
        csim = child.get("sim")
        if csim is not None:
            any_sim = True
            for f in SIM_FIELDS:
                sim[f] = sim[f] + csim[f]
    return {"name": name, "cat": "algorithm", "attrs": {"instances": len(children)},
            "sim": sim if any_sim else None, "wall": wall,
            "children": children}


def campaign(algorithms=None, instances: int = 50, seed0: int = 0,
             tol: float = TOL, corpus_dir=None,
             progress: Callable[[str], None] | None = None,
             jobs: int = 1, trace: bool = False) -> CampaignResult:
    """Run the differential oracle over seeded instances of each algorithm.

    ``instances`` seeded cases per algorithm, seeds ``seed0 .. seed0+i-1``
    (each algorithm cycles its adversarial families over those seeds).
    Divergent instances are serialized to ``corpus_dir`` when given.

    ``jobs`` fans the seeded instances of each algorithm out over that
    many worker processes (``repro.parallel``).  Every instance is a pure
    function of its ``(algorithm, seed)`` coordinates and results are
    merged in seed order, so the returned reports — and any corpus files —
    are identical for every ``jobs`` value.

    ``trace`` records a span forest per instance (inside the worker) and
    merges them by item index into one ``algorithm`` span per algorithm
    (:attr:`CampaignResult.algorithm_spans`).  Merging follows seed order,
    never completion order, so the trace too is identical for every
    ``jobs`` value — and the per-algorithm span totals equal
    :meth:`CampaignResult.sim_totals` bit-for-bit.
    """
    from ..parallel import parallel_map

    names = list(algorithms) if algorithms else list(ALGORITHMS)
    for name in names:
        if name not in ALGORITHMS:
            raise KeyError(f"unknown algorithm {name!r}; "
                           f"have {sorted(ALGORITHMS)}")
    reports = []
    corpus_files = []
    algorithm_spans: list[dict] | None = [] if trace else None
    for name in names:
        items = [(name, seed0 + i, tol, trace) for i in range(instances)]
        results = parallel_map(_campaign_item, items, jobs=jobs)
        failed = 0
        instance_spans: list[dict] = []
        for res in results:
            if trace:
                report, spans = res
                instance_spans.extend(spans)
            else:
                report = res
            reports.append(report)
            if not report.ok:
                failed += 1
                if corpus_dir is not None:
                    corpus_files.append(save_failure(report, corpus_dir))
        if trace:
            algorithm_spans.append(_algorithm_span(name, instance_spans))
        if progress:
            progress(f"{name}: {instances - failed}/{instances} ok")
    return CampaignResult(reports=reports, corpus_files=corpus_files,
                          algorithm_spans=algorithm_spans)
