"""Incremental envelope maintenance: insert / delete / retarget.

Everything else in the repo recomputes an envelope from scratch; this
module maintains one under updates, the kinetic-data-structure way
(``docs/incremental.md``, grounded in Chan's dynamic shallow cuttings — see
PAPERS.md): the current envelope is a set of locally certified pieces,
an update invalidates only the certificates it can affect, and repairs
are driven by a deterministic event queue
(:class:`~repro.incremental.events.CertificateQueue`) ordered by
``(failure_time, canonical key)`` — never by heap insertion order.

Parity contract (the load-bearing invariant, checked by
``repro.verify incremental`` campaigns and the Hypothesis suite):
after *any* sequence of updates the maintained envelope is
**byte-identical** to a cold :func:`repro.core.envelope.envelope_serial`
run over the surviving curves — same piece intervals bit-for-bit, same
winners, same label sequence.  Three mechanisms make that exact rather
than approximate:

* **canonical crossing orientation** — ``envelope_serial`` always
  intersects pairs with the lower list position on the left (the F
  subtree of every divide-and-conquer level precedes the G subtree), so
  the engine orients every crossing query by insertion rank and shares
  the family's memoised pair cache; the breakpoint floats come out of
  the identical root computation;
* **rank tie-breaks** — where the reference samples midpoints and
  resolves ties toward the F side, the engine resolves toward the lower
  insertion rank, which is the same curve;
* **reference fusing** — repaired pieces are fused with the exact
  ``(family.same, label)`` rule of the envelope geometry, so maximal pieces
  have the same extents.

Updates localize: an insert only touches pieces the new curve actually
beats somewhere, a delete only re-sweeps the windows the deleted curve
owned (deleting a curve that never reached the envelope is O(1) beyond
the ownership check), and a retarget is an excise + merge at the same
insertion rank.  The full recompute stays the semantic reference and
the benchmark baseline (``benchmarks/bench_incremental.py``).
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from ..core.envelope import envelope_serial
from ..core.family import CurveFamily, PolynomialFamily
from ..kinetics.piecewise import INF, Piece, PiecewiseFunction, T_EPS
from ..kinetics.polynomial import Polynomial
from .events import Certificate, CertificateQueue

__all__ = ["IncrementalEnvelope", "encode_envelope", "envelope_bytes"]

#: Degenerate-interval tolerance — the serial oracle's ``_eps``.
_EPS = 1e-9

#: Relative tolerance for jet (value, derivative, ...) sign decisions at
#: event times, where the leading difference is a freshly solved root
#: residual rather than a true value.  Scaled by a coefficient bound on
#: the evaluated polynomial, it sits far above polished-root residuals
#: (~1e-12) and far below genuine curve separations at sampled times.
_JET_TOL = 1e-7


def _eps(t: float) -> float:
    return _EPS * max(1.0, abs(t) if math.isfinite(t) else 1.0)


def encode_envelope(env: PiecewiseFunction) -> dict:
    """Canonical JSON-able encoding of an envelope (bitwise faithful).

    Mirrors the service's response encoding: one ``[lo, hi, coeffs,
    label]`` row per piece, floats passed through untouched so byte
    comparison of the JSON detects any last-bit drift.
    """
    return {
        "pieces": [
            [p.lo, p.hi, list(p.fn._cl), repr(p.label)]
            for p in env.pieces
        ]
    }


def envelope_bytes(env: PiecewiseFunction) -> bytes:
    """The canonical byte string compared by the parity oracle."""
    return json.dumps(encode_envelope(env), sort_keys=True).encode()


class IncrementalEnvelope:
    """Lower/upper envelope of a curve set maintained under updates.

    Parameters
    ----------
    s:
        Degree bound of the polynomial family (ignored when ``family``
        is given).
    op:
        ``"min"`` (lower envelope) or ``"max"`` (upper envelope).
    family:
        An explicit :class:`~repro.core.family.CurveFamily`; defaults to
        a fresh ``PolynomialFamily(s)``.  The family's crossing cache is
        the engine's root store — every certificate failure time is a
        memoised pair-crossing query.

    Curves are identified by integer ids (assigned by :meth:`insert` or
    caller-chosen); each id carries a stable *insertion rank* used for
    canonical crossing orientation and tie-breaking.  A retarget keeps
    the rank — it is the same object with a new motion — so the
    reference order is reproducible from the engine state alone.
    """

    def __init__(self, s: int = 2, op: str = "min",
                 family: CurveFamily | None = None) -> None:
        if op not in ("min", "max"):
            raise ValueError(f"op must be 'min' or 'max', got {op!r}")
        self.family = family if family is not None else PolynomialFamily(s)
        self.op = op
        self.version = 0
        self._curves: dict[int, Polynomial] = {}
        self._rank: dict[int, int] = {}
        self._next_id = 0
        self._next_rank = 0
        self._env: list[Piece] = []  # labels are curve ids
        self.stats = {
            "inserts": 0, "deletes": 0, "retargets": 0,
            "hidden_deletes": 0, "windows": 0,
            "certificates": 0, "events": 0,
        }
        self.last_update: dict = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._curves)

    def __contains__(self, cid: int) -> bool:
        return cid in self._curves

    def ids(self) -> list[int]:
        """Live curve ids in insertion-rank order."""
        return sorted(self._curves, key=self._rank.__getitem__)

    @property
    def envelope(self) -> PiecewiseFunction:
        """The maintained envelope; labels are curve ids."""
        return PiecewiseFunction(list(self._env), validate=False)

    def reference_curves(self) -> list[Polynomial]:
        """The surviving curves in rank order — the exact input a cold
        :func:`envelope_serial` run would receive."""
        return [self._curves[cid] for cid in self.ids()]

    def as_reference(self) -> PiecewiseFunction:
        """The envelope with labels converted to rank-order indices,
        directly comparable (byte-for-byte) to
        ``envelope_serial(self.reference_curves(), ...)``."""
        index = {cid: i for i, cid in enumerate(self.ids())}
        return PiecewiseFunction(
            [Piece(p.lo, p.hi, p.fn, index[p.label]) for p in self._env],
            validate=False,
        )

    def recompute_reference(self) -> PiecewiseFunction:
        """A cold full recompute over the surviving curves (the semantic
        reference the parity contract compares against)."""
        return envelope_serial(
            self.reference_curves(), self.family, op=self.op
        )

    def canonical_bytes(self) -> bytes:
        return envelope_bytes(self.as_reference())

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, curve: Polynomial | list | tuple,
               cid: int | None = None) -> int:
        """Add a curve; returns its id.  Cost is proportional to the
        number of envelope pieces the curve challenges, not to the
        family size."""
        curve = self._coerce(curve)
        if cid is None:
            cid = self._next_id
        elif cid in self._curves:
            raise ValueError(f"curve id {cid} already live")
        self._next_id = max(self._next_id, cid + 1)
        self._curves[cid] = curve
        self._rank[cid] = self._next_rank
        self._next_rank += 1
        certs, events = self._merge_curve(cid, curve)
        self.version += 1
        self.stats["inserts"] += 1
        self.stats["certificates"] += certs
        self.stats["events"] += events
        self.last_update = {
            "op": "insert", "id": cid, "certificates": certs,
            "events": events, "pieces": len(self._env),
        }
        return cid

    def delete(self, cid: int) -> None:
        """Remove a curve.  Only the envelope windows it owned are
        re-swept; a curve that never reached the envelope costs O(1)
        beyond the ownership scan."""
        if cid not in self._curves:
            raise KeyError(f"no live curve with id {cid}")
        del self._curves[cid]
        certs, events, windows = self._excise(cid)
        del self._rank[cid]
        self.version += 1
        self.stats["deletes"] += 1
        self.stats["windows"] += windows
        self.stats["certificates"] += certs
        self.stats["events"] += events
        if windows == 0:
            self.stats["hidden_deletes"] += 1
        self.last_update = {
            "op": "delete", "id": cid, "windows": windows,
            "certificates": certs, "events": events,
            "pieces": len(self._env),
        }

    def retarget(self, cid: int, curve: Polynomial | list | tuple) -> None:
        """Replace the motion of a live curve, keeping its rank (it is
        the same object): an excise of the old motion followed by a
        merge of the new one."""
        if cid not in self._curves:
            raise KeyError(f"no live curve with id {cid}")
        curve = self._coerce(curve)
        del self._curves[cid]
        certs_d, events_d, windows = self._excise(cid)
        self._curves[cid] = curve
        certs_i, events_i = self._merge_curve(cid, curve)
        self.version += 1
        self.stats["retargets"] += 1
        self.stats["windows"] += windows
        self.stats["certificates"] += certs_d + certs_i
        self.stats["events"] += events_d + events_i
        self.last_update = {
            "op": "retarget", "id": cid, "windows": windows,
            "certificates": certs_d + certs_i,
            "events": events_d + events_i, "pieces": len(self._env),
        }

    def extend(self, curves: Iterable[Polynomial | list | tuple]) -> list[int]:
        """Insert many curves; returns their ids."""
        return [self.insert(c) for c in curves]

    def reset(self, curves: Iterable[Polynomial | list | tuple]) -> list[int]:
        """Replace the whole population and rebuild via one cold
        recompute (the bootstrap path: initial build is exactly the
        reference, updates are incremental from there)."""
        self._curves.clear()
        self._rank.clear()
        self._next_id = 0
        self._next_rank = 0
        ids = []
        for c in curves:
            cid = self._next_id
            self._curves[cid] = self._coerce(c)
            self._rank[cid] = self._next_rank
            self._next_id += 1
            self._next_rank += 1
            ids.append(cid)
        env = envelope_serial(
            [self._curves[c] for c in ids], self.family, op=self.op,
            labels=ids,
        )
        self._env = list(env.pieces)
        self.version += 1
        self.last_update = {"op": "reset", "n": len(ids),
                            "pieces": len(self._env)}
        return ids

    # ------------------------------------------------------------------
    # Insert machinery
    # ------------------------------------------------------------------
    def _coerce(self, curve: Polynomial | list | tuple) -> Polynomial:
        if not isinstance(curve, Polynomial):
            curve = Polynomial(curve)
        if curve.degree > self.family.s:
            raise ValueError(
                f"curve degree {curve.degree} exceeds family bound "
                f"s={self.family.s}")
        return curve

    def _oriented(self, f: Polynomial, fid: int, g: Polynomial,
                  gid: int) -> tuple[Polynomial, Polynomial]:
        """The pair in canonical (lower rank first) orientation — the
        orientation every envelope_serial crossing query uses."""
        if self._rank[fid] <= self._rank[gid]:
            return f, g
        return g, f

    def _crossings(self, f: Polynomial, fid: int, g: Polynomial,
                   gid: int, lo: float, hi: float) -> list[float]:
        a, b = self._oriented(f, fid, g, gid)
        return self.family.crossings(a, b, lo, hi)

    def _merge_curve(self, cid: int, curve: Polynomial) -> tuple[int, int]:
        """Fold one curve into the envelope.  One certificate per
        challenged piece; certificate failure = the first time the new
        curve takes over inside that piece."""
        env = self._env
        if not env:
            self._env = [Piece(0.0, INF, curve, cid)]
            return 0, 0
        fam = self.family
        pairs = {}
        for p in env:
            if not fam.same(p.fn, curve):
                pairs[self._oriented(p.fn, p.label, curve, cid)] = None
        if pairs:
            fam.prefetch_crossings(pairs)
        queue = CertificateQueue()
        for idx, p in enumerate(env):
            split = self._split_piece(p, curve, cid)
            if split is None:
                continue
            fail_t, sub = split
            queue.push(Certificate(
                fail_t, (p.lo, self._rank[p.label], self._rank[cid]),
                (idx, sub),
            ))
        certs = queue.pushes
        replaced: dict[int, list[Piece]] = {}
        events = 0
        while queue:
            cert = queue.pop()
            idx, sub = cert.payload
            replaced[idx] = sub
            events += 1
        if replaced:
            out: list[Piece] = []
            for idx, p in enumerate(env):
                out.extend(replaced.get(idx, (p,)))
            self._env = self._fuse(out)
        return certs, events

    def _split_piece(self, p: Piece, curve: Polynomial,
                     cid: int) -> tuple[float, list[Piece]] | None:
        """Re-divide one envelope piece against the new curve.

        Returns None when the incumbent survives the whole piece (its
        certificate holds), else ``(first_takeover_time, subpieces)``.
        Span winners replicate the serial oracle exactly: cut at the
        pair's crossings, sample the midpoint, resolve ties toward the
        lower rank (the F side of the reference combine).
        """
        fam = self.family
        wid = p.label
        if fam.same(p.fn, curve):
            if self._rank[cid] < self._rank[wid]:
                return p.lo, [Piece(p.lo, p.hi, curve, cid)]
            return None
        roots = self._crossings(p.fn, wid, curve, cid, p.lo, p.hi)
        bounds = [p.lo, *roots, p.hi]
        sub: list[Piece] = []
        fail_t = None
        for a, b in zip(bounds, bounds[1:]):
            if b - a <= _eps(a):
                continue
            mid = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            win_fn, win_id = self._span_winner(p.fn, wid, curve, cid, mid)
            if win_id == cid and fail_t is None:
                fail_t = a
            sub.append(Piece(a, b, win_fn, win_id))
        if fail_t is None:
            return None
        return fail_t, sub

    def _span_winner(self, f: Polynomial, fid: int, g: Polynomial,
                     gid: int, mid: float) -> tuple[Polynomial, int]:
        """The reference midpoint rule: compare values at the sample
        point with the lower-rank curve on the left of the comparison
        (ties go to it, as in ``_gap_subpieces``)."""
        fam = self.family
        (a_fn, a_id), (b_fn, b_id) = sorted(
            ((f, fid), (g, gid)), key=lambda t: self._rank[t[1]]
        )
        va, vb = fam.value(a_fn, mid), fam.value(b_fn, mid)
        take_a = (va <= vb) if self.op == "min" else (va >= vb)
        return (a_fn, a_id) if take_a else (b_fn, b_id)

    # ------------------------------------------------------------------
    # Delete machinery
    # ------------------------------------------------------------------
    def _excise(self, cid: int) -> tuple[int, int, int]:
        """Remove a curve's pieces from the envelope, re-sweeping each
        window it owned.  ``self._curves`` must already exclude it
        (``self._rank`` must not: seams still orient against it)."""
        env = self._env
        if not any(p.label == cid for p in env):
            return 0, 0, 0
        out: list[Piece] = []
        certs = events = windows = 0
        i = 0
        while i < len(env):
            if env[i].label != cid:
                out.append(env[i])
                i += 1
                continue
            j = i
            while j < len(env) and env[j].label == cid:
                j += 1
            windows += 1
            sub, c, e = self._sweep_window(env[i].lo, env[j - 1].hi)
            out.extend(sub)
            certs += c
            events += e
            i = j
        self._env = self._fuse(out)
        return certs, events, windows

    def _sweep_window(self, lo: float,
                      hi: float) -> tuple[list[Piece], int, int]:
        """Kinetic sweep of one vacated window over the surviving
        curves: install the winner at the window start, certify it
        against every challenger, process certificate failures in
        deterministic order until the window is exhausted."""
        cands = [(cid, self._curves[cid]) for cid in self.ids()]
        if not cands:
            return [], 0, 0
        queue = CertificateQueue()
        t = lo
        wid, w = self._winner_after(t, cands)
        self._certify(queue, w, wid, t, hi, cands)
        pieces: list[Piece] = []
        events = 0
        while queue:
            cert = queue.pop()
            events += 1
            r = cert.failure_time
            nid, n = self._winner_after(r, cands)
            if nid == wid:
                # Tangency (or a challenger overtaken by a third curve
                # at the same instant): the incumbent survives; re-arm
                # this pair's certificate past r.
                x_id, x = cert.payload
                self._certify_pair(queue, w, wid, x, x_id, r, hi)
                continue
            pieces.append(Piece(t, r, w, wid))
            t, wid, w = r, nid, n
            queue.clear()
            self._certify(queue, w, wid, t, hi, cands)
        pieces.append(Piece(t, hi, w, wid))
        return pieces, queue.pushes, events

    def _certify(self, queue: CertificateQueue, w: Polynomial, wid: int,
                 t: float, hi: float,
                 cands: list[tuple[int, Polynomial]]) -> None:
        """One certificate per challenger: the winner holds until its
        first crossing with that challenger after ``t``."""
        fam = self.family
        pairs = {}
        for cid, c in cands:
            if cid != wid and not fam.same(c, w):
                pairs[self._oriented(w, wid, c, cid)] = None
        if pairs:
            fam.prefetch_crossings(pairs)
        for cid, c in cands:
            if cid != wid and not fam.same(c, w):
                self._certify_pair(queue, w, wid, c, cid, t, hi)

    def _certify_pair(self, queue: CertificateQueue, w: Polynomial,
                      wid: int, c: Polynomial, cid: int, t: float,
                      hi: float) -> None:
        roots = self._crossings(w, wid, c, cid, t, hi)
        if roots:
            queue.push(Certificate(
                roots[0], (self._rank[wid], self._rank[cid]), (cid, c)
            ))

    def _winner_after(self, t: float, cands: list[tuple[int, Polynomial]],
                      ) -> tuple[int, Polynomial]:
        """argmin/argmax of the candidate curves just after ``t`` by jet
        comparison; ties at every jet level go to the lower rank (the
        reference tie-break)."""
        best_id, best = cands[0]
        for cid, c in cands[1:]:
            if self._beats(c, cid, best, best_id, t):
                best_id, best = cid, c
        return best_id, best

    def _beats(self, c: Polynomial, cid: int, best: Polynomial,
               best_id: int, t: float) -> bool:
        fam = self.family
        if fam.same(c, best):
            return False
        # The memoised pair difference is the same polynomial whose
        # roots schedule the certificates — sign analysis and event
        # times come from one cached object.  Canonical orientation
        # shares the family's pair cache; flip the sign back when the
        # challenger is the higher-rank member.
        flip = self._rank[cid] > self._rank[best_id]
        a, b = (best, c) if flip else (c, best)
        sgn = _sign_after(fam._pair_entry(a, b), t)
        if flip:
            sgn = -sgn
        if sgn == 0:
            return False
        want = -1 if self.op == "min" else 1
        return sgn == want

    # ------------------------------------------------------------------
    # Shared
    # ------------------------------------------------------------------
    def _fuse(self, pieces: list[Piece]) -> list[Piece]:
        """Maximal-piece fusing with the serial oracle's rule: adjacent
        pieces merge iff same curve (family.same) and same label."""
        fam = self.family
        out: list[Piece] = []
        for p in pieces:
            if (
                out
                and out[-1].label == p.label
                and abs(out[-1].hi - p.lo) <= T_EPS * max(1.0, abs(p.lo))
                and fam.same(out[-1].fn, p.fn)
            ):
                prev = out.pop()
                p = Piece(prev.lo, p.hi, prev.fn, prev.label)
            out.append(p)
        return out


def _sign_after(d: Polynomial, t: float) -> int:
    """Sign of ``d`` immediately to the right of ``t``: the first jet
    level (value, then derivatives) that clears its tolerance decides;
    all levels quiet means the curves are indistinguishable there."""
    cur = d
    while True:
        v = cur(t)
        if abs(v) > _JET_TOL * _jet_scale(cur, t):
            return -1 if v < 0.0 else 1
        if cur.degree == 0:
            return 0
        cur = cur.derivative()


def _jet_scale(p: Polynomial, t: float) -> float:
    """A coefficient-magnitude bound on ``|p|`` near ``t`` (the scale
    against which an evaluation counts as nonzero)."""
    s = max(1.0, abs(t))
    total = 0.0
    power = 1.0
    for c in p._cl:
        total += abs(c) * power
        power *= s
    return max(1.0, total)
