"""Wall-clock smoke check — tier-1's guard against host-side regressions.

Runs the ``benchmarks/bench_wallclock.py`` sweep in smoke mode (reduced
sizes, a few seconds total) and fails on a >2x wall-clock regression
against the recorded seed baselines.  The JSON report goes to a pytest
temp dir, never to the repo-root ``BENCH_wallclock.json`` — that file is
reserved for explicit CLI benchmark runs, so the tier-1 suite cannot
overwrite deliberate large-tier results with smoke noise.  The
budgets are generous — the optimised tree runs 3-6x *faster* than seed, so
only a genuine regression (e.g. losing the fast combine path *and* the
crossing cache) can trip them, not machine noise.

Deselect with ``-m "not wallclock"`` when timing is meaningless (e.g.
under heavy parallel load).
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_wallclock import run_wallclock, within_noise  # noqa: E402

pytestmark = pytest.mark.wallclock


def test_wallclock_smoke(tmp_path):
    json_path = tmp_path / "BENCH_wallclock.json"
    results = run_wallclock("smoke", repeats=3, json_path=json_path)
    assert json_path.exists()
    for name, entry in results["workloads"].items():
        # >2x regression vs the *seed* baseline fails: even the
        # unoptimised tree passed this with a 2x margin to spare.
        assert entry["seconds"] <= 2.0 * entry["seed_seconds"], (
            f"{name}: {entry['seconds']:.4f}s vs seed "
            f"{entry['seed_seconds']:.4f}s — wall-clock regression"
        )
    # The envelope sweep specifically must retain a clear win over seed:
    # losing the batched/cached fast path drops this to ~1x.
    assert results["workloads"]["envelope"]["speedup"] >= 1.5
    # The vectorized executor may not be a pessimisation on the
    # acceptance workload.  Noise-aware (1.25x + 10 ms): smoke workloads
    # run in tens of milliseconds, where a plain ratio reads measurement
    # grain as signal.
    env = results["workloads"]["envelope"]
    assert within_noise(env["seconds"], env["plan_off_seconds"]), (
        f"envelope: vectorized {env['seconds']:.4f}s slower than "
        f"interpreted {env['plan_off_seconds']:.4f}s"
    )
