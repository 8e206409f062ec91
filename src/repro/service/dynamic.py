"""Dynamic families: named incremental envelopes behind the service.

The write-traffic half of the serving story.  A *dynamic family* is a
named, versioned curve population whose envelope is maintained in place
by :class:`repro.incremental.IncrementalEnvelope`; a mutation
(insert/delete/retarget) costs amortized incremental work instead of a
full recompute, and invalidates exactly the run keys that family's
queries cache under — nothing else (``ShardedResultCache.invalidate``,
with exact counters).

The store follows the cache-hygiene discipline (RPR004): it is
**bounded** (``max_families``, creation past the cap is a structured
error, never silent growth), **clearable** (:meth:`clear`, called on
service shutdown), and **accounted** (:meth:`stats`).

Parity contract: a dynamic family's encoded envelope entry is
byte-identical to what :func:`repro.service.model.run_driver` would
encode for a cold serial run over the surviving curves — pinned by
``tests/service/test_mutations.py`` and the ``repro.verify
incremental`` campaign.  Queries against it therefore answer through
the same pure :func:`repro.service.model.answer_query` path as driver
results.
"""

from __future__ import annotations

from ..incremental import IncrementalEnvelope
from ..verify.generators import make_curves
from .model import ServiceError, _encode_envelope, dynamic_run_key

__all__ = ["DynamicFamily", "DynamicFamilyStore"]


class DynamicFamily:
    """One named dynamic family: engine + cache-key registration."""

    __slots__ = ("name", "engine", "op", "cached_keys")

    def __init__(self, name: str, engine: IncrementalEnvelope) -> None:
        self.name = name
        self.engine = engine
        self.op = engine.op
        #: Run keys currently cached for this family, in the order they
        #: were cached — the exact keys a mutation must invalidate.
        self.cached_keys: dict[tuple, None] = {}

    def info(self) -> dict:
        """Deterministic coordinates of the family's current state."""
        return {
            "name": self.name,
            "op": self.op,
            "version": self.engine.version,
            "size": len(self.engine),
            "pieces": len(self.engine.envelope.pieces),
        }


class DynamicFamilyStore:
    """Named dynamic families, mutated in place, invalidated exactly."""

    def __init__(self, max_families: int = 64) -> None:
        self.max_families = max(1, int(max_families))
        self._families: dict[str, DynamicFamily] = {}
        self.mutations = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def names(self) -> list[str]:
        return sorted(self._families)

    def family(self, name: str) -> DynamicFamily:
        fam = self._families.get(name)
        if fam is None:
            raise ServiceError("no_such_family",
                               f"no dynamic family named {name!r}",
                               {"name": name, "have": self.names()})
        return fam

    def engine(self, name: str) -> IncrementalEnvelope:
        return self.family(name).engine

    # ------------------------------------------------------------------
    # Mutations (state transitions; shape already validated upstream)
    # ------------------------------------------------------------------
    def apply(self, name: str, action: str, params: dict) -> dict:
        """Apply one mutation; returns the action's result fields.

        Raises :class:`ServiceError` for state errors (unknown family,
        duplicate create, unknown curve id, store full).
        """
        handler = getattr(self, f"_apply_{action}")
        result = handler(name, dict(params))
        self.mutations += 1
        return result

    def _apply_create(self, name: str, params: dict) -> dict:
        if name in self._families:
            raise ServiceError("family_exists",
                               f"dynamic family {name!r} already exists",
                               {"name": name})
        if len(self._families) >= self.max_families:
            raise ServiceError("store_full",
                               f"dynamic family store is at its cap "
                               f"({self.max_families}); drop one first",
                               {"max_families": self.max_families})
        degree = int(params.get("degree", 2))
        engine = IncrementalEnvelope(s=degree, op=params.get("op", "min"))
        kind = params.get("kind")
        seeded = 0
        if kind is not None and int(params.get("n", 0)) > 0:
            base = make_curves(kind, int(params.get("seed", 0)),
                               n=int(params["n"]), s=degree)
            engine.reset(base)
            seeded = len(base)
        fam = self._families[name] = DynamicFamily(name, engine)
        return {**fam.info(), "seeded": seeded}

    def _apply_drop(self, name: str, params: dict) -> dict:
        fam = self.family(name)
        del self._families[name]
        return fam.info()

    def _apply_insert(self, name: str, params: dict) -> dict:
        fam = self.family(name)
        try:
            cid = fam.engine.insert(params["coeffs"])
        except ValueError as exc:
            raise ServiceError("bad_curve", str(exc), {"name": name})
        return {**fam.info(), "curve_id": cid,
                "update": dict(fam.engine.last_update)}

    def _apply_delete(self, name: str, params: dict) -> dict:
        fam = self.family(name)
        try:
            fam.engine.delete(params["curve_id"])
        except KeyError as exc:
            raise ServiceError("no_such_curve", str(exc.args[0]),
                               {"name": name,
                                "curve_id": params["curve_id"]})
        return {**fam.info(), "curve_id": params["curve_id"],
                "update": dict(fam.engine.last_update)}

    def _apply_retarget(self, name: str, params: dict) -> dict:
        fam = self.family(name)
        try:
            fam.engine.retarget(params["curve_id"], params["coeffs"])
        except KeyError as exc:
            raise ServiceError("no_such_curve", str(exc.args[0]),
                               {"name": name,
                                "curve_id": params["curve_id"]})
        except ValueError as exc:
            raise ServiceError("bad_curve", str(exc), {"name": name})
        return {**fam.info(), "curve_id": params["curve_id"],
                "update": dict(fam.engine.last_update)}

    # ------------------------------------------------------------------
    # Query-side support
    # ------------------------------------------------------------------
    def run_key(self, name: str) -> tuple:
        return dynamic_run_key(name, self.family(name).op)

    def entry(self, name: str) -> dict:
        """A cacheable run entry for the family's current envelope.

        Same schema as :func:`repro.service.model.run_driver` output —
        and byte-identical to it for the surviving curves: the engine's
        rank-labelled envelope encodes exactly as the cold serial run's
        (the parity contract), with no simulated charges (the
        incremental backend does host arithmetic only).
        """
        fam = self.family(name)
        result = _encode_envelope(fam.engine.as_reference())
        return {"result": result, "sim": None, "sim_time": 0.0}

    def note_cached(self, name: str, key: tuple) -> None:
        """Record that ``key`` now caches this family's entry."""
        self.family(name).cached_keys[key] = None

    def take_cached(self, name: str) -> dict[tuple, None]:
        """Claim (and forget) the family's cached keys for invalidation."""
        fam = self.family(name)
        keys, fam.cached_keys = fam.cached_keys, {}
        return keys

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._families.clear()

    def stats(self) -> dict:
        return {
            "families": len(self._families),
            "max_families": self.max_families,
            "mutations": self.mutations,
            "curves": sum(len(f.engine) for f in self._families.values()),
            "pieces": sum(len(f.engine.envelope.pieces)
                          for f in self._families.values()),
        }
