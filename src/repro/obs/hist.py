"""Deterministic fixed-bucket log2 histograms.

The operational-telemetry counterpart of the repo's exact counters: a
:class:`Log2Histogram` summarises a value distribution (request latency,
batch size, queue depth, worker turnaround) in **fixed, pre-declared
buckets** whose boundaries are exact powers of two of a base resolution.
Fixedness is the point:

* **deterministic** — the bucket of a value is a pure function of the
  value and the declared ``(lo, hi)`` range (one ``math.frexp`` call, no
  float logs whose libm rounding could flip a boundary case), so the same
  samples always produce the same bucket array;
* **exactly mergeable** — two histograms with the same declared range
  merge by bucket-wise integer addition (plus exact count/sum/min/max
  combination).  Merging per-shard or per-size histograms is therefore
  associative and jobs-invariant: any grouping of the same observations
  yields the same merged state, the same discipline as the campaign
  engine's merge-by-index;
* **bounded** — the bucket array is allocated once at construction
  (``n + 2`` cells: underflow, ``n`` value buckets, overflow) and never
  grows, so a histogram on a hot path can never become ballast (RPR004's
  spirit applied to telemetry).

Quantiles are derived from the bucket array as the **upper bound** of the
bucket holding the target rank — a deterministic, conservative estimate
that is within one bucket's resolution (a factor of two) of the exact
sorted-sample percentile, which the benchmark harnesses assert per run.

Histograms never touch the simulated clocks: they summarise host-side
values handed to :meth:`Log2Histogram.observe` and are pure arithmetic
otherwise, so enabling them cannot perturb a single simulated charge.
"""

from __future__ import annotations

import math

__all__ = ["Log2Histogram", "merge_histograms"]

#: Snapshot schema tag carried by :meth:`Log2Histogram.to_dict`.
HIST_SCHEMA = "repro.hist/1"


class Log2Histogram:
    """Fixed log2 buckets over ``[lo, hi)`` plus underflow/overflow.

    ``lo`` is the base resolution (everything below it lands in the
    underflow bucket) and ``hi`` the saturation bound (everything at or
    above it lands in the overflow bucket); both must be exact powers of
    two of each other — ``hi == lo * 2**n`` — so bucket ``i`` (for
    ``1 <= i <= n``) covers exactly ``[lo * 2**(i-1), lo * 2**i)``.

    Alongside the buckets, ``count``/``total``/``vmin``/``vmax`` are
    tracked exactly, so means and extremes never suffer bucket
    resolution.
    """

    __slots__ = ("name", "unit", "lo", "hi", "n", "buckets",
                 "count", "total", "vmin", "vmax")

    def __init__(self, name: str, *, lo: float, hi: float, unit: str = ""):
        if not (lo > 0 and hi > lo):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        n = int(round(math.log2(hi / lo)))
        if lo * (2.0 ** n) != hi:
            raise ValueError(
                f"hi must be lo * 2**n exactly, got lo={lo!r} hi={hi!r}")
        self.name = name
        self.unit = unit
        self.lo = float(lo)
        self.hi = float(hi)
        self.n = n
        #: Fixed-size counts: [underflow, bucket 1..n, overflow].
        self.buckets = [0] * (n + 2)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one sample (exact count/sum/extremes + one bucket).

        ``frexp(value / lo)`` yields ``(m, e)`` with ``m`` in ``[0.5,
        1)``; for a ratio in ``[2**(e-1), 2**e)`` the covering bucket is
        exactly ``e``, with no transcendental call whose rounding could
        flip a power-of-two boundary.  This is the only copy of the
        bucket arithmetic, on the serving loop's per-sample hot path.
        """
        value = float(value)
        if value < self.lo:
            idx = 0
        elif value >= self.hi:
            idx = self.n + 1
        else:
            idx = math.frexp(value / self.lo)[1]
            if idx < 1:
                idx = 1
            elif idx > self.n:
                idx = self.n
        self.buckets[idx] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def upper_bound(self, index: int) -> float:
        """The inclusive upper edge reported for bucket ``index``.

        Underflow reports ``lo`` (its true upper edge); overflow reports
        ``inf`` — an overflowed quantile is explicitly saturated rather
        than silently clamped to ``hi``.
        """
        if index <= 0:
            return self.lo
        if index > self.n:
            return math.inf
        return self.lo * (2.0 ** index)

    def quantile(self, q: float) -> float | None:
        """The deterministic upper-bound estimate of the ``q`` quantile.

        Returns the upper edge of the bucket containing the rank
        ``ceil(q * count)`` sample — within one bucket's resolution (a
        factor of two) above the exact sorted-sample value.  ``None`` on
        an empty histogram.
        """
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.buckets):
            seen += c
            if seen >= rank:
                return self.upper_bound(i)
        return self.upper_bound(self.n + 1)  # pragma: no cover - guarded

    def percentiles(self, qs=(0.50, 0.90, 0.99)) -> dict:
        """``{"p50": ..., "p90": ...}`` for the requested quantiles."""
        out = {}
        for q in qs:
            label = f"{q * 100:g}".replace(".", "_")
            out[f"p{label}"] = self.quantile(q)
        return out

    @property
    def mean(self) -> float | None:
        return (self.total / self.count) if self.count else None

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs.

        The final pair's bound is ``inf`` and its count equals
        :attr:`count` — the classic ``le="+Inf"`` bucket.
        """
        out = []
        acc = 0
        for i, c in enumerate(self.buckets):
            acc += c
            out.append((self.upper_bound(i), acc))
        return out

    # ------------------------------------------------------------------
    # Exact merge
    # ------------------------------------------------------------------
    def merge(self, other: "Log2Histogram") -> "Log2Histogram":
        """Bucket-wise add ``other`` into ``self`` (exact, associative).

        Both histograms must declare the same ``(lo, hi)`` range — a
        silent range coercion would destroy the merge-invariance
        contract.  Returns ``self`` for chaining.
        """
        if (other.lo, other.hi) != (self.lo, self.hi):
            raise ValueError(
                f"cannot merge histograms of different ranges: "
                f"({self.lo}, {self.hi}) vs ({other.lo}, {other.hi})")
        for i, c in enumerate(other.buckets):
            self.buckets[i] += c
        self.count += other.count
        self.total += other.total
        if other.vmin is not None and (self.vmin is None
                                       or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax is not None and (self.vmax is None
                                       or other.vmax > self.vmax):
            self.vmax = other.vmax
        return self

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-plain snapshot (bucket array + exact aggregates)."""
        return {
            "schema": HIST_SCHEMA,
            "kind": "log2",
            "name": self.name,
            "unit": self.unit,
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "buckets": list(self.buckets),
        }

    @staticmethod
    def from_dict(doc: dict) -> "Log2Histogram":
        """Rebuild a histogram from :meth:`to_dict` output (lossless)."""
        if doc.get("kind") != "log2":
            raise ValueError(f"not a log2 histogram snapshot: "
                             f"{doc.get('kind')!r}")
        hist = Log2Histogram(doc.get("name", ""), lo=doc["lo"],
                             hi=doc["hi"], unit=doc.get("unit", ""))
        buckets = [int(c) for c in doc["buckets"]]
        if len(buckets) != len(hist.buckets):
            raise ValueError(
                f"bucket array length {len(buckets)} does not match the "
                f"declared range ({hist.n + 2} buckets)")
        hist.buckets = buckets
        hist.count = int(doc["count"])
        hist.total = float(doc["sum"])
        hist.vmin = doc.get("min")
        hist.vmax = doc.get("max")
        return hist

    def clear(self) -> None:
        """Zero every bucket and aggregate (the range stays declared)."""
        self.buckets = [0] * (self.n + 2)
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Log2Histogram({self.name!r}, count={self.count}, "
                f"lo={self.lo:g}, hi={self.hi:g})")


def merge_histograms(hists) -> Log2Histogram | None:
    """Merge an iterable of same-range histograms into a fresh one.

    Returns ``None`` for an empty iterable.  The result is independent of
    grouping: ``merge_histograms([a, b, c])`` equals any nested merge of
    the same histograms (bucket counts are integers; sums are added in
    the given order, so pass a deterministic order for float-exactness).
    """
    merged: Log2Histogram | None = None
    for h in hists:
        if merged is None:
            merged = Log2Histogram(h.name, lo=h.lo, hi=h.hi, unit=h.unit)
        merged.merge(h)
    return merged
