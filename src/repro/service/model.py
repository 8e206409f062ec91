"""The service's query model: families, requests, runs, and answers.

A request names a *curve family* by its generator coordinates (the same
``(kind, seed, n)`` coordinates the verification layer replays failures
from — :mod:`repro.verify.generators`), a *dynamic algorithm*, a machine
*backend*, and query parameters.  Parameters split in two:

* **run parameters** identify the simulated run that must happen (the
  envelope ``op``, the hull-membership ``query`` index) — requests that
  agree on ``(algorithm, family, backend, run parameters)`` share one
  simulated run and therefore one *run key*;
* **query parameters** are evaluated server-side from the finished run's
  encoded result (an envelope value at ``t``, membership at ``t``,
  extremeness of an index) — they never require another simulated run.

The encoded result form is plain JSON (polynomial coefficients, interval
endpoints, hull indices), so it crosses process boundaries, caches
byte-stably, and evaluates deterministically: the service's answer for a
query is a pure function of ``(run key, query parameters)``, which is what
the bit-identity tests in ``tests/service/`` pin against per-query driver
runs.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import dataclass
from typing import Any

from ..core.envelope import envelope, envelope_serial
from ..core.family import PolynomialFamily
from ..core.hull_membership import hull_membership_intervals
from ..core.steady import steady_hull
from ..machines.machine import hypercube_machine, mesh_machine, pram_machine
from ..verify.compare import sim_snapshot
from ..verify.generators import (
    CURVE_KINDS,
    SYSTEM_KINDS,
    SYSTEM_SIZE_FLOORS,
    make_curves,
    make_system,
)

__all__ = [
    "ALGORITHMS", "BACKENDS", "FamilySpec", "MutationRequest", "MUTATION_OPS",
    "QueryRequest", "QueryResponse", "ServiceError", "mutation", "request",
    "run_key", "shard_of", "run_driver", "answer_query", "direct_response",
    "dynamic_run_key", "response_payload", "validate_mutation",
    "validate_request",
]

#: Piece-boundary tolerance for evaluating encoded envelopes, matching
#: :data:`repro.kinetics.piecewise.T_EPS` so service answers agree with
#: ``PiecewiseFunction.piece_at`` on the same run.
_T_EPS = 1e-9

#: Machine factories per backend name; ``serial`` runs the driver's
#: ``machine=None`` oracle path.
BACKENDS = ("serial", "mesh", "hypercube", "pram")

_MACHINE_FACTORIES = {
    "mesh": mesh_machine,
    "hypercube": hypercube_machine,
    "pram": pram_machine,
}

#: algorithm -> (family domain, run-parameter names, default query).
ALGORITHMS = {
    "envelope": ("curves", ("op",), "full"),
    "hull_membership": ("system", ("query",), "intervals"),
    "steady_hull": ("system", (), "hull"),
}


class ServiceError(RuntimeError):
    """A structured service failure delivered instead of a response.

    ``code`` is machine-readable (``worker_failed``, ``shutdown``, ...);
    ``detail`` carries the human-readable cause and ``context`` any
    batch/shard coordinates — clients must never need to parse the
    message string.
    """

    def __init__(self, code: str, detail: str,
                 context: dict | None = None) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.context = dict(context or {})

    def to_dict(self) -> dict:
        return {"code": self.code, "detail": self.detail,
                "context": dict(self.context)}


@dataclass(frozen=True)
class FamilySpec:
    """Generator coordinates of one curve/point family (pure replay key)."""

    domain: str    # "curves" | "system"
    kind: str
    seed: int
    n: int
    degree: int = 2   # s for curve families, k for point systems

    def __post_init__(self) -> None:
        if self.domain not in ("curves", "system"):
            raise ValueError(f"unknown family domain {self.domain!r}")
        kinds = CURVE_KINDS if self.domain == "curves" else SYSTEM_KINDS
        if self.kind not in kinds:
            raise KeyError(f"unknown {self.domain} kind {self.kind!r}; "
                           f"have {sorted(kinds)}")
        if self.n < 1:
            raise ValueError(f"family size must be >= 1, got {self.n}")

    def key(self) -> tuple:
        return (self.domain, self.kind, self.seed, self.n, self.degree)

    def size(self) -> int:
        """The number of objects :meth:`build` actually returns."""
        if self.domain == "system":
            return max(self.n, SYSTEM_SIZE_FLOORS[self.kind])
        return self.n

    def build(self) -> Any:
        """Materialise the family (deterministic in the coordinates)."""
        if self.domain == "curves":
            return make_curves(self.kind, self.seed, n=self.n, s=self.degree)
        return make_system(self.kind, self.seed, n=self.n, k=self.degree)

    def to_dict(self) -> dict:
        return {"domain": self.domain, "kind": self.kind, "seed": self.seed,
                "n": self.n, "degree": self.degree}

    @staticmethod
    def from_dict(doc: dict) -> "FamilySpec":
        return FamilySpec(doc["domain"], doc["kind"], int(doc["seed"]),
                          int(doc["n"]), int(doc.get("degree", 2)))


@dataclass(frozen=True)
class QueryRequest:
    """One client query: ``(algorithm, family, backend, params)``.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so requests
    are hashable (dedupe keys) and canonically ordered.  Use
    :func:`request` to build one from keyword arguments.
    """

    algorithm: str
    family: FamilySpec
    backend: str = "mesh"
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise KeyError(f"unknown algorithm {self.algorithm!r}; "
                           f"have {sorted(ALGORITHMS)}")
        if self.backend not in BACKENDS:
            raise KeyError(f"unknown backend {self.backend!r}; "
                           f"have {sorted(BACKENDS)}")
        domain, _, _ = ALGORITHMS[self.algorithm]
        if self.family.domain != domain:
            raise ValueError(
                f"{self.algorithm} queries run on {domain!r} families, "
                f"got {self.family.domain!r}")

    # ------------------------------------------------------------------
    def run_params(self) -> dict:
        """The parameters that select the simulated run."""
        _, run_names, _ = ALGORITHMS[self.algorithm]
        params = dict(self.params)
        out = {}
        if self.algorithm == "envelope":
            out["op"] = params.get("op", "min")
        elif self.algorithm == "hull_membership":
            out["query"] = int(params.get("query", 0))
        return {k: out[k] for k in run_names}

    def query(self) -> dict:
        """The query evaluated from the finished run's encoded result."""
        _, run_names, default_q = ALGORITHMS[self.algorithm]
        out = {k: v for k, v in self.params if k not in run_names}
        out.setdefault("q", default_q)
        return out

    def key(self) -> tuple:
        """Full request identity (dedupe key within a batch)."""
        return (self.algorithm, self.family.key(), self.backend, self.params)

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "family": self.family.to_dict(),
                "backend": self.backend, "params": dict(self.params)}


def request(algorithm: str, *, kind: str, seed: int, n: int,
            degree: int | None = None, backend: str = "mesh",
            **params) -> QueryRequest:
    """Build a :class:`QueryRequest` from keyword coordinates."""
    domain, _, _ = ALGORITHMS.get(algorithm, (None, None, None))
    if domain is None:
        raise KeyError(f"unknown algorithm {algorithm!r}; "
                       f"have {sorted(ALGORITHMS)}")
    if degree is None:
        degree = 2 if domain == "curves" else 1
    fam = FamilySpec(domain, kind, seed, n, degree)
    items = tuple(sorted(params.items()))
    return QueryRequest(algorithm, fam, backend, items)


# ----------------------------------------------------------------------
# Mutations: write traffic against dynamic families
# ----------------------------------------------------------------------
#: mutation action -> required parameter names (beyond optional ones).
MUTATION_OPS = {
    "create": (),
    "insert": ("coeffs",),
    "delete": ("curve_id",),
    "retarget": ("curve_id", "coeffs"),
    "drop": (),
}

#: Optional parameters each mutation action understands.
_MUTATION_OPTIONAL = {
    "create": ("op", "degree", "kind", "seed", "n"),
    "insert": (),
    "delete": (),
    "retarget": (),
    "drop": (),
}


@dataclass(frozen=True)
class MutationRequest:
    """One write against a *dynamic* family: ``(name, action, params)``.

    Dynamic families live in the service's
    :class:`~repro.service.dynamic.DynamicFamilyStore`, maintained by
    the incremental engine (:mod:`repro.incremental`) — a mutation
    updates the envelope in place instead of invalidating the world and
    recomputing.  ``params`` is a sorted ``(name, value)`` tuple (same
    canonical form as :class:`QueryRequest.params`); use
    :func:`mutation` to build one from keyword arguments.
    """

    name: str
    action: str
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.action not in MUTATION_OPS:
            raise KeyError(f"unknown mutation action {self.action!r}; "
                           f"have {sorted(MUTATION_OPS)}")
        if not self.name or not isinstance(self.name, str):
            raise ValueError("dynamic family name must be a non-empty string")

    def to_dict(self) -> dict:
        return {"name": self.name, "action": self.action,
                "params": dict(self.params)}


def mutation(name: str, action: str, **params) -> MutationRequest:
    """Build a :class:`MutationRequest` from keyword parameters."""
    if "coeffs" in params:
        params["coeffs"] = tuple(float(c) for c in params["coeffs"])
    return MutationRequest(name, action, tuple(sorted(params.items())))


def validate_mutation(m: MutationRequest) -> list[str]:
    """Problems that would make ``m`` unapplyable (empty = valid).

    Mirrors :func:`validate_request`: shape errors surface at submit
    time as structured ``bad_request`` failures, never inside the
    engine.  Liveness errors (unknown family, unknown curve id) are the
    store's to raise — they depend on state, not shape.
    """
    problems = []
    params = dict(m.params)
    required = MUTATION_OPS[m.action]
    known = set(required) | set(_MUTATION_OPTIONAL[m.action])
    for need in required:
        if need not in params:
            problems.append(f"mutation {m.action!r} requires parameter "
                            f"{need!r}")
    for name in params:
        if name not in known:
            problems.append(f"unknown parameter {name!r} for mutation "
                            f"{m.action!r} (known: {sorted(known)})")
    if "coeffs" in params:
        coeffs = params["coeffs"]
        if not isinstance(coeffs, tuple) or not coeffs:
            problems.append("coeffs must be a non-empty tuple of floats")
        elif not all(isinstance(c, float) and math.isfinite(c)
                     for c in coeffs):
            problems.append("coeffs must all be finite floats")
    if "curve_id" in params and not isinstance(params["curve_id"], int):
        problems.append("curve_id must be an integer")
    if m.action == "create":
        if params.get("op", "min") not in ("min", "max"):
            problems.append(f"envelope op must be 'min' or 'max', "
                            f"got {params.get('op')!r}")
        kind = params.get("kind")
        if kind is not None and kind not in CURVE_KINDS:
            problems.append(f"unknown curve kind {kind!r}; "
                            f"have {sorted(CURVE_KINDS)}")
        if int(params.get("n", 0)) < 0:
            problems.append("seed family size n must be >= 0")
        if int(params.get("degree", 2)) < 0:
            problems.append("degree bound must be >= 0")
    return problems


def dynamic_run_key(name: str, op: str) -> tuple:
    """The run key a dynamic family's envelope entry caches under.

    Same shape as :func:`run_key` — ``("envelope", family-coordinates,
    backend, machine_size, run-params)`` — with the
    ``"dynamic"`` domain marking that the entry came from the
    incremental engine, not a simulated run.  The key deliberately
    excludes the family *version*: a mutation evicts the key (targeted
    invalidation) rather than abandoning it to LRU aging.
    """
    return ("envelope", ("dynamic", name), "incremental", 0,
            (("op", op),))


#: Query names each algorithm answers, with their required parameters.
_QUERY_SHAPES = {
    "envelope": {"full": (), "value_at": ("t",)},
    "hull_membership": {"intervals": (), "member_at": ("t",)},
    "steady_hull": {"hull": (), "is_extreme": ("i",)},
}


def validate_request(req: QueryRequest) -> list[str]:
    """Problems that would make ``req`` unanswerable (empty = valid).

    Construction already validates algorithm/backend/domain; this checks
    the *parameters*: run parameters in range, a known query name, and
    the query's required arguments present — so a bad request fails at
    submit time with a structured error, never inside a worker.

    Validity is a pure function of the (frozen, hashable) request, so
    repeat arrivals of popular requests hit a bounded memo instead of
    re-deriving the parameter shape on every submit.
    """
    return list(_validate_cached(req))


@functools.lru_cache(maxsize=4096)
def _validate_cached(req: QueryRequest) -> tuple:
    problems = []
    params = dict(req.params)
    rp = req.run_params()
    if req.algorithm == "envelope" and rp["op"] not in ("min", "max"):
        problems.append(f"envelope op must be 'min' or 'max', "
                        f"got {rp['op']!r}")
    if req.algorithm == "hull_membership":
        q = rp["query"]
        if not 0 <= q < req.family.size():
            problems.append(f"hull_membership query index {q} out of range "
                            f"for a family of {req.family.size()} points")
    shapes = _QUERY_SHAPES[req.algorithm]
    query = req.query()
    qname = query["q"]
    if qname not in shapes:
        problems.append(f"unknown {req.algorithm} query {qname!r}; "
                        f"have {sorted(shapes)}")
    else:
        for needed in shapes[qname]:
            if needed not in query:
                problems.append(f"query {qname!r} requires parameter "
                                f"{needed!r}")
    run_names = ALGORITHMS[req.algorithm][1]
    known = set(run_names) | {"q"} | {
        p for shape in shapes.values() for p in shape
    }
    for name in params:
        if name not in known:
            problems.append(f"unknown parameter {name!r} for "
                            f"{req.algorithm} (known: {sorted(known)})")
    return tuple(problems)


@functools.lru_cache(maxsize=4096)
def run_key(req: QueryRequest, machine_size: int) -> tuple:
    """The simulated-run identity a request resolves to.

    Requests sharing a run key are batched into one simulated run; the
    result cache is keyed on this.  A pure function of its (hashable)
    arguments, memoized bounded: the planner computes it once per
    arrival, and repeat-heavy traffic repeats the same requests.
    """
    rp = tuple(sorted(req.run_params().items()))
    return (req.algorithm, req.family.key(), req.backend, machine_size, rp)


@functools.lru_cache(maxsize=4096)
def shard_of(key: tuple, n_shards: int) -> int:
    """Deterministic family->shard assignment, stable across processes.

    Uses CRC-32 of the canonical JSON of the *family* coordinates (never
    python's salted ``hash``), so the assignment is a pure function of the
    key for every interpreter invocation — the same discipline as the
    campaign engine's seed-carrying work items.
    """
    family = key[1] if len(key) > 1 and isinstance(key[1], tuple) else key
    blob = json.dumps(family, sort_keys=True, default=str).encode()
    return zlib.crc32(blob) % max(1, n_shards)


# ----------------------------------------------------------------------
# Driver execution and result encoding (runs inside workers)
# ----------------------------------------------------------------------
def _encode_envelope(env: Any) -> dict:
    pieces = []
    for p in env.pieces:
        coeffs = list(p.fn._cl)
        pieces.append([float(p.lo), float(p.hi), coeffs, repr(p.label)])
    return {"pieces": pieces}


def _encode_intervals(intervals: Any) -> dict:
    return {"intervals": [[float(lo), float(hi)] for lo, hi in intervals]}


def _encode_hull(hull: Any) -> dict:
    return {"hull": [int(i) for i in hull]}


def run_driver(algorithm: str, family: FamilySpec, run_params: dict,
               backend: str, machine_size: int) -> dict:
    """One simulated run; returns the encoded result plus sim charges.

    The returned dict is plain JSON: it crosses the worker process
    boundary, lands in the result cache, and is what every query in the
    batch is answered from.  ``sim_time``/``sim`` are the run's simulated
    charges (zero/None on the serial backend) — deterministic, so they are
    part of the cacheable payload.
    """
    machine = None
    if backend != "serial":
        machine = _MACHINE_FACTORIES[backend](machine_size)
    objects = family.build()
    if algorithm == "envelope":
        fam = PolynomialFamily(family.degree)
        op = run_params["op"]
        if machine is None:
            raw = envelope_serial(objects, fam, op=op)
        else:
            raw = envelope(machine, objects, fam, op=op)
        result = _encode_envelope(raw)
    elif algorithm == "hull_membership":
        raw = hull_membership_intervals(machine, objects,
                                        query=run_params["query"])
        result = _encode_intervals(raw)
    elif algorithm == "steady_hull":
        raw = steady_hull(machine, objects)
        result = _encode_hull(raw)
    else:  # pragma: no cover - guarded by QueryRequest validation
        raise KeyError(f"unknown algorithm {algorithm!r}")
    sim = None if machine is None else sim_snapshot(machine.metrics)
    sim_time = 0.0 if machine is None else float(machine.metrics.time)
    return {"result": result, "sim": sim, "sim_time": sim_time}


# ----------------------------------------------------------------------
# Query evaluation from encoded results (runs on the event loop; pure
# arithmetic over the JSON form — never driver code)
# ----------------------------------------------------------------------
def _horner(coeffs: list, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _envelope_answer(result: dict, query: dict) -> Any:
    q = query["q"]
    if q == "full":
        return result["pieces"]
    if q == "value_at":
        t = float(query["t"])
        for lo, hi, coeffs, label in result["pieces"]:
            if lo - _T_EPS <= t <= hi + _T_EPS:
                return {"t": t, "value": _horner(coeffs, t), "label": label}
        return {"t": t, "value": None, "label": None}
    raise KeyError(f"unknown envelope query {q!r}")


def _membership_answer(result: dict, query: dict) -> Any:
    q = query["q"]
    if q == "intervals":
        return result["intervals"]
    if q == "member_at":
        t = float(query["t"])
        return any(lo - _T_EPS <= t <= hi + _T_EPS
                   for lo, hi in result["intervals"])
    raise KeyError(f"unknown hull_membership query {q!r}")


def _hull_answer(result: dict, query: dict) -> Any:
    q = query["q"]
    if q == "hull":
        return result["hull"]
    if q == "is_extreme":
        return int(query["i"]) in result["hull"]
    raise KeyError(f"unknown steady_hull query {q!r}")


_ANSWERERS = {
    "envelope": _envelope_answer,
    "hull_membership": _membership_answer,
    "steady_hull": _hull_answer,
}


def answer_query(algorithm: str, result: dict, query: dict) -> Any:
    """Evaluate one query against an encoded run result (pure function)."""
    return _ANSWERERS[algorithm](result, query)


def response_payload(req: QueryRequest, entry: dict, *,
                     machine_size: int) -> dict:
    """The deterministic response body for ``req`` given a run entry.

    Every field is a pure function of the run key and the query, so a
    cache-hit payload is byte-equal to the cold payload for the same
    request (``tests/service/test_equivalence.py`` pins this as exact
    ``json.dumps`` equality).  ``"executor"`` is always ``None``: the
    data-movement executor never changes a run's answer or charges.
    """
    return {
        "schema": "repro.service/1",
        "algorithm": req.algorithm,
        "family": req.family.to_dict(),
        "backend": req.backend,
        "machine_size": machine_size,
        "executor": None,
        "run_params": req.run_params(),
        "query": req.query(),
        "answer": answer_query(req.algorithm, entry["result"], req.query()),
        "sim_time": entry["sim_time"],
    }


@dataclass
class QueryResponse:
    """A served query: deterministic payload + host-side metadata.

    ``payload`` is the bit-identity surface (byte-equal across cache
    hits, shard counts, arrival orders and batch shapes); ``meta`` is
    host-side serving detail (latency, shard, batch size, cache flag) and
    ``provenance`` the ``repro.provenance/1`` manifest of the serving
    process.
    """

    payload: dict
    meta: dict
    provenance: dict

    @property
    def answer(self) -> Any:
        return self.payload["answer"]

    @property
    def cache_hit(self) -> bool:
        return bool(self.meta.get("cache_hit"))

    def payload_bytes(self) -> bytes:
        """Canonical byte form of the deterministic payload."""
        return json.dumps(self.payload, sort_keys=True).encode()


def direct_response(req: QueryRequest, *, machine_size: int = 64) -> dict:
    """The per-query driver run the service must be bit-identical to.

    Runs the driver fresh (no batching, no cache, no pools) and builds the
    same deterministic payload the service returns — the oracle side of
    every equivalence test.
    """
    entry = run_driver(req.algorithm, req.family, req.run_params(),
                       req.backend, machine_size)
    return response_payload(req, entry, machine_size=machine_size)
