"""Log2Histogram unit contract: buckets, quantiles, exact merge.

The histogram is the deterministic backbone of the telemetry layer —
same samples, same bucket array, any grouping — so these tests pin the
arithmetic rather than sampling behaviour: exact bucket edges (powers of
two, no libm rounding), quantile-vs-sorted parity within one bucket's
resolution, merge associativity, and lossless snapshot round-trips.
"""

import json
import math

import numpy as np
import pytest

from repro.obs.hist import HIST_SCHEMA, Log2Histogram, merge_histograms

pytestmark = pytest.mark.obs


def make(lo=2.0 ** -10, hi=2.0 ** 4, name="h"):
    return Log2Histogram(name, lo=lo, hi=hi, unit="s")


def bucket_of(h, value):
    """The bucket ``value`` lands in: observe it into a fresh histogram
    of ``h``'s range and read which bucket rose."""
    fresh = Log2Histogram(h.name, lo=h.lo, hi=h.hi)
    fresh.observe(value)
    return fresh.buckets.index(1)


# ----------------------------------------------------------------------
# Construction and bucket arithmetic
# ----------------------------------------------------------------------
def test_range_must_be_power_of_two_multiple():
    Log2Histogram("ok", lo=0.5, hi=8.0)  # 0.5 * 2**4
    with pytest.raises(ValueError):
        Log2Histogram("bad", lo=0.5, hi=7.0)
    with pytest.raises(ValueError):
        Log2Histogram("bad", lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        Log2Histogram("bad", lo=2.0, hi=1.0)


def test_bucket_count_is_n_plus_underflow_overflow():
    h = make()  # lo * 2**14 == hi
    assert h.n == 14
    assert len(h.buckets) == 16


def test_bucket_edges_are_exact():
    h = make(lo=1.0, hi=16.0)  # buckets: [1,2) [2,4) [4,8) [8,16)
    # Underflow strictly below lo.
    assert bucket_of(h, 0.0) == 0
    assert bucket_of(h, 0.999999) == 0
    # Every lower edge starts its own bucket; the value just below the
    # edge stays in the previous one — exact, not libm-rounded.
    assert bucket_of(h, 1.0) == 1
    assert bucket_of(h, 2.0) == 2
    assert bucket_of(h, math.nextafter(2.0, 0.0)) == 1
    assert bucket_of(h, 4.0) == 3
    assert bucket_of(h, 8.0) == 4
    assert bucket_of(h, math.nextafter(16.0, 0.0)) == 4
    # Saturation at hi.
    assert bucket_of(h, 16.0) == h.n + 1
    assert bucket_of(h, 1e9) == h.n + 1


def test_observe_tracks_exact_aggregates():
    h = make(lo=1.0, hi=16.0)
    for v in (0.25, 1.5, 3.0, 40.0):
        h.observe(v)
    assert h.count == 4
    assert h.total == pytest.approx(44.75)
    assert h.vmin == 0.25 and h.vmax == 40.0
    assert h.mean == pytest.approx(44.75 / 4)
    assert sum(h.buckets) == h.count


def test_determinism_same_samples_same_buckets():
    rng = np.random.default_rng(7)
    samples = rng.uniform(0, 20, size=500)
    a, b = make(lo=1.0, hi=16.0), make(lo=1.0, hi=16.0)
    for v in samples:
        a.observe(v)
    for v in samples:
        b.observe(v)
    assert a.buckets == b.buckets and a.count == b.count


# ----------------------------------------------------------------------
# Quantiles: upper-bound contract + parity with sorted samples
# ----------------------------------------------------------------------
def test_quantile_empty_is_none():
    assert make().quantile(0.5) is None
    assert make().percentiles((0.5,))["p50"] is None


def test_quantile_rejects_out_of_range():
    h = make()
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_quantile_is_bucket_upper_bound_of_rank_sample():
    rng = np.random.default_rng(3)
    samples = np.concatenate([
        rng.uniform(2.0 ** -12, 2.0 ** 5, size=900),   # in range + a tail
        rng.uniform(0.0, 2.0 ** -11, size=100),        # underflow mass
    ])
    h = make()
    for v in samples:
        h.observe(v)
    ordered = np.sort(samples)
    for q in (0.01, 0.25, 0.50, 0.90, 0.99, 1.0):
        rank = max(1, math.ceil(q * len(ordered)))
        sample = float(ordered[rank - 1])
        bound = h.quantile(q)
        # Exactly the upper edge of the bucket holding the rank sample...
        assert bound == h.upper_bound(bucket_of(h, sample))
        # ...hence within one bucket's resolution of the exact value
        # (overflowed ranks saturate to inf, explicitly).
        if sample < h.hi:
            assert sample <= bound <= max(2.0 * sample, h.lo)
        else:
            assert bound == math.inf


def test_quantile_saturates_to_inf_on_overflow_mass():
    h = make(lo=1.0, hi=4.0)
    for _ in range(10):
        h.observe(100.0)
    assert h.quantile(0.5) == math.inf


def test_percentiles_labels():
    h = make(lo=1.0, hi=4.0)
    h.observe(1.5)
    out = h.percentiles((0.5, 0.999))
    assert set(out) == {"p50", "p99_9"}


def test_cumulative_ends_at_total_count():
    h = make(lo=1.0, hi=4.0)
    for v in (0.5, 1.0, 2.0, 9.0):
        h.observe(v)
    pairs = h.cumulative()
    assert pairs[-1][0] == math.inf and pairs[-1][1] == h.count
    cums = [c for _, c in pairs]
    assert cums == sorted(cums)


# ----------------------------------------------------------------------
# Exact merge
# ----------------------------------------------------------------------
def test_merge_is_bucketwise_exact_and_grouping_invariant():
    rng = np.random.default_rng(11)
    samples = rng.uniform(0, 20, size=600)
    whole = make(lo=1.0, hi=16.0)
    for v in samples:
        whole.observe(v)
    parts = [make(lo=1.0, hi=16.0) for _ in range(4)]
    for i, v in enumerate(samples):
        parts[i % 4].observe(v)
    merged = merge_histograms(parts)
    assert merged.buckets == whole.buckets
    assert merged.count == whole.count
    assert merged.vmin == whole.vmin and merged.vmax == whole.vmax
    assert merged.total == pytest.approx(whole.total)
    # Any grouping of the same parts gives the same bucket state.
    left = merge_histograms(parts[:2]).merge(merge_histograms(parts[2:]))
    assert left.buckets == merged.buckets and left.count == merged.count


def test_merge_rejects_range_mismatch():
    with pytest.raises(ValueError):
        make(lo=1.0, hi=16.0).merge(make(lo=1.0, hi=32.0))


def test_merge_histograms_empty_iterable_is_none():
    assert merge_histograms([]) is None


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_to_dict_from_dict_round_trip_is_lossless():
    h = make(lo=1.0, hi=16.0)
    for v in (0.5, 1.5, 3.0, 100.0):
        h.observe(v)
    doc = json.loads(json.dumps(h.to_dict()))
    assert doc["schema"] == HIST_SCHEMA
    back = Log2Histogram.from_dict(doc)
    assert back.buckets == h.buckets
    assert (back.count, back.total, back.vmin, back.vmax) == \
        (h.count, h.total, h.vmin, h.vmax)
    assert back.quantile(0.5) == h.quantile(0.5)


def test_from_dict_rejects_wrong_kind_and_shape():
    h = make(lo=1.0, hi=4.0)
    doc = h.to_dict()
    with pytest.raises(ValueError):
        Log2Histogram.from_dict({**doc, "kind": "linear"})
    with pytest.raises(ValueError):
        Log2Histogram.from_dict({**doc, "buckets": [0, 0]})


def test_clear_zeroes_state_but_keeps_range():
    h = make(lo=1.0, hi=4.0)
    h.observe(2.0)
    h.clear()
    assert h.count == 0 and sum(h.buckets) == 0
    assert h.vmin is None and h.quantile(0.5) is None
    assert (h.lo, h.hi) == (1.0, 4.0)
