"""The repository benchmark's traced runs can still wrap every layer hook.

``benchmarks/perf/layers.py`` lists each boundary a traced run wraps as
``(owner, attr, ...)``, and ``benchmarks/perf/tracing.py`` replaces
``owner.__dict__[attr]``.  A refactor that drops or moves one of those
names (say ``repro.service.model.envelope_serial``) would otherwise
surface only when the traced benchmark runs; this test fails it in the
unit suite instead.  The benchmark files are imported read-only: no
bytecode is written next to them, and the imported modules are dropped
afterwards.
"""

import importlib
import pathlib
import sys

PERF_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def test_every_layer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERF_DIR))
    try:
        layers = importlib.import_module("layers")
        targets = layers.targets(layers.Hooks())
    finally:
        for name in ("layers", "tracing"):
            sys.modules.pop(name, None)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in owner.__dict__]
    assert not missing, missing
